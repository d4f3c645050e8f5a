"""Register-map parsing, layout, and emission."""

import json
import random
import re
from importlib import resources

import pytest

from hilsim.memmap import (
    ConfigError,
    ConfigSyntaxError,
    LayoutError,
    LayoutedMap,
    SCALAR_TYPES,
    compute_layout,
    emit_csv,
    emit_docs,
    emit_struct_decl,
    parse_config,
)
from hilsim.memmap import schema
from hilsim.reference import reference_layout

from conftest import load_script


def make_config(modules, name="m", version="1.0.0", padded=None):
    doc = {"name": name, "version": version, "modules": modules}
    if padded is not None:
        doc["padded_total_size"] = padded
    return json.dumps(doc)


def param(name, type="u8", **kw):
    return {"name": name, "type": type, "description": f"{name} test field", **kw}


# -- parsing ------------------------------------------------------------


def test_parse_minimal():
    spec = parse_config(make_config([{"name": "a", "parameters": [param("x")]}]))
    assert spec.name == "m"
    assert spec.version == "1.0.0"
    assert spec.modules[0].parameters[0].name == "x"


def test_syntax_error_reports_position():
    with pytest.raises(ConfigSyntaxError, match="line"):
        parse_config('{"name": "m", }')


@pytest.mark.parametrize(
    "doc,msg",
    [
        ('{"name": "m", "version": "1.0"}', "major.minor.patch"),
        ('{"name": "9m", "version": "1.0.0"}', "bad map name"),
    ],
)
def test_top_level_validation(doc, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_config(doc)


def test_duplicate_parameter_rejected():
    cfg = make_config([{"name": "a", "parameters": [param("x"), param("x")]}])
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(cfg)


def test_unknown_type_rejected():
    cfg = make_config([{"name": "a", "parameters": [param("x", type="f32")]}])
    with pytest.raises(ConfigError, match="unknown type"):
        parse_config(cfg)


def test_default_out_of_range_rejected():
    cfg = make_config([{"name": "a", "parameters": [param("x", default=256)]}])
    with pytest.raises(ConfigError, match="out of range"):
        parse_config(cfg)


def test_empty_description_rejected():
    cfg = make_config([{"name": "a", "parameters": [{"name": "x", "type": "u8"}]}])
    with pytest.raises(ConfigError, match="description"):
        parse_config(cfg)


def test_unknown_flag_rejected():
    cfg = make_config([{"name": "a", "parameters": [param("x", flags=["magic"])]}])
    with pytest.raises(ConfigError, match="unknown flag"):
        parse_config(cfg)


def record(name, *members, **kw):
    return {"name": name, "type": "record", "description": f"{name} test record", "members": list(members), **kw}


def one_module(*params, **module_keys):
    return {"name": "m", "version": "1.0.0", "modules": [{"name": "a", "parameters": list(params), **module_keys}]}


@pytest.mark.parametrize(
    "doc,msg",
    [
        (one_module(param("x", acess="read-only")), "a.x: a scalar takes no key 'acess'"),
        (one_module(param("x", members=[param("y")])), "a.x: a scalar takes no key 'members'"),
        (one_module(record("r", param("y"), access="read-only")), "a.r: a record takes no key 'access'"),
        (one_module(record("r", param("y"), flags=["init-trigger"])), "a.r: a record takes no key 'flags'"),
        (one_module(record("r", param("y"), default=3)), "a.r: a record takes no key 'default'"),
        (one_module(record("r", param("y"), array_len=2)), "a.r: a record takes no key 'array_len'"),
        (one_module(record("r", param("y", acess="read-only"))), "a.r.y: a scalar takes no key 'acess'"),
        ({**one_module(param("x")), "padded_size": 64}, "the map document takes no key 'padded_size'"),
        (one_module(param("x"), params=[]), "module 'a' takes no key 'params'"),
        ({**one_module(param("x")), "padded_total_size": True}, "padded_total_size must be a positive integer"),
        (one_module(param("x", array_len=True)), "a.x: array_len must be >= 1"),
        (one_module(param("x", default=True)), "a.x: default must be an integer"),
        (one_module(param("x", array_len=2, default=[1, False])), "a.x: default must be an integer"),
    ],
    ids=[
        "misspelt-key",
        "members-on-a-scalar",
        "access-on-a-record",
        "flags-on-a-record",
        "default-on-a-record",
        "array_len-on-a-record",
        "misspelt-key-in-a-member",
        "unknown-document-key",
        "unknown-module-key",
        "bool-padded_total_size",
        "bool-array_len",
        "bool-default",
        "bool-in-a-default-list",
    ],
)
def test_a_key_the_schema_forbids_or_a_bool_for_an_integer_is_rejected(doc, msg):
    with pytest.raises(ConfigError, match=re.escape(msg)):
        parse_config(json.dumps(doc))


@pytest.mark.parametrize(
    "doc,msg",
    [
        (one_module(param("x", flags={"init-trigger": 1})), "a.x: flags must be a list of unique strings"),
        (one_module(param("x", flags="volatile")), "a.x: flags must be a list of unique strings"),
        (one_module(param("x", flags=["volatile", "volatile"])), "a.x: flags must be a list of unique strings"),
        (one_module(param("x", flags=[["volatile"]])), "a.x: flags must be a list of unique strings"),
        (one_module(param("x"), description=7), "module 'a': description must be a string"),
        (one_module(param("x"), description=None), "module 'a': description must be a string"),
    ],
    ids=["an-object", "a-string", "a-repeated-flag", "a-list-in-the-list", "int-description", "null-description"],
)
def test_flags_not_a_list_of_unique_strings_or_a_module_description_not_a_string_is_rejected(doc, msg):
    with pytest.raises(ConfigError, match=re.escape(msg)):
        parse_config(json.dumps(doc))


SCHEMA = json.loads(resources.files("hilsim").joinpath("data/map_config.schema.json").read_text("utf-8"))


def test_the_json_schema_and_the_validator_allow_the_same_keys_and_values():
    module, parameter = SCHEMA["$defs"]["module"], SCHEMA["$defs"]["parameter"]
    assert set(SCHEMA["properties"]) == schema.DOCUMENT_KEYS
    assert set(module["properties"]) == schema.MODULE_KEYS
    assert set(parameter["properties"]) == schema.RECORD_KEYS | schema.SCALAR_KEYS
    fields = parameter["properties"]
    assert set(fields["type"]["enum"]) == set(schema.SCALAR_TYPES) | {"record"}
    assert set(fields["access"]["enum"]) == set(schema.ACCESS_LEVELS)
    assert set(fields["flags"]["items"]["enum"]) == set(schema.KNOWN_FLAGS)
    # a record forbids the scalar-only keys, and a scalar the record-only ones
    assert set(parameter["then"]["properties"]) == schema.SCALAR_KEYS - schema.RECORD_KEYS
    assert set(parameter["else"]["properties"]) == schema.RECORD_KEYS - schema.SCALAR_KEYS


def test_the_validator_requires_exactly_the_keys_the_json_schema_requires():
    """Dropping one key from a document that sets every key fails exactly when the schema requires it."""
    full_param = {"name": "x", "type": "u8", "description": "d", "array_len": 1, "default": 1,
                  "access": "read-only", "flags": ["volatile"]}
    full_module = {"name": "a", "description": "d", "parameters": [full_param]}
    full_doc = {"name": "m", "version": "1.0.0", "padded_total_size": 64, "modules": [full_module]}
    levels = [
        (SCHEMA, full_doc, lambda obj: obj),
        (SCHEMA["$defs"]["module"], full_module, lambda mod: {**full_doc, "modules": [mod]}),
        (SCHEMA["$defs"]["parameter"], full_param,
         lambda par: {**full_doc, "modules": [{**full_module, "parameters": [par]}]}),
    ]
    for level, full, wrap in levels:
        assert set(full) == set(level["properties"]) - {"members"}
        for key in full:
            doc = wrap({k: v for k, v in full.items() if k != key})
            if key in level["required"]:
                with pytest.raises(ConfigError):
                    parse_config(json.dumps(doc))
            else:
                parse_config(json.dumps(doc))


def test_the_json_schema_and_the_validator_agree_on_record_documents():
    """A record with each key dropped, or with a scalar-only key added, passes both checks or neither."""
    jsonschema = pytest.importorskip("jsonschema")
    record = {"name": "r", "type": "record", "description": "d", "members": [{"name": "x", "description": "d"}]}
    scalar_only = {"array_len": 2, "default": 1, "access": "read-only", "flags": ["volatile"]}
    variants = [record, *({k: v for k, v in record.items() if k != key} for key in record)]
    variants += [{**record, key: value} for key, value in scalar_only.items()]
    for par in variants:
        doc = {"name": "m", "version": "1.0.0", "modules": [{"name": "a", "parameters": [par]}]}
        try:
            parse_config(json.dumps(doc))
        except ConfigError:
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(doc, SCHEMA)
        else:
            jsonschema.validate(doc, SCHEMA)
    # a record with no members fails both
    doc = {"name": "m", "version": "1.0.0", "modules": [{"name": "a", "parameters": [
        {"name": "r", "type": "record", "description": "d"}
    ]}]}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, SCHEMA)
    with pytest.raises(ConfigError, match="record needs at least one member"):
        parse_config(json.dumps(doc))


NAMES = ["x", "_x9", "X_1", "é", "xé", "x١", "ǅ", "9x", "x-y", ""]
VERSIONS = ["1.0.0", "10.20.30", "1.0.١", "1.0.²", "1.0", "1.0.0.0"]


def named(where, name):
    """A one-parameter document with ``name`` as its map, module or parameter name, or as its version."""
    doc = one_module(param("x"))
    if where in ("name", "version"):
        doc[where] = name
    elif where == "module":
        doc["modules"][0]["name"] = name
    else:
        doc["modules"][0]["parameters"][0]["name"] = name
    return doc


@pytest.mark.parametrize(
    "where,name",
    [(where, name) for where in ("name", "module", "parameter") for name in NAMES]
    + [("version", version) for version in VERSIONS],
)
def test_the_json_schema_and_the_validator_agree_on_names_and_versions(where, name):
    """A non-ASCII letter or digit is no identifier character to the schema, so the validator refuses it too."""
    jsonschema = pytest.importorskip("jsonschema")
    doc = named(where, name)
    try:
        jsonschema.validate(doc, SCHEMA)
    except jsonschema.ValidationError:
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))
    else:
        parse_config(json.dumps(doc))


# -- layout -------------------------------------------------------------


def test_alignment_padding_example():
    # u8 @0, u16 aligned up to 2, u8 @4 -> 5 bytes of placement
    cfg = make_config(
        [{"name": "a", "parameters": [param("x"), param("y", type="u16"), param("z")]}]
    )
    layout = compute_layout(parse_config(cfg))
    offsets = {e.name: e.offset for e in layout.entries}
    assert offsets == {"a.x": 0, "a.y": 2, "a.z": 4}
    assert layout.total_size == 5


def test_record_aligned_to_largest_member():
    cfg = make_config(
        [
            {
                "name": "a",
                "parameters": [
                    param("pad"),
                    {
                        "name": "r",
                        "type": "record",
                        "description": "record under test",
                        "members": [param("lo"), param("wide", type="u32")],
                    },
                ],
            }
        ]
    )
    layout = compute_layout(parse_config(cfg))
    # record alignment = 4 (largest member), so r.lo lands at 4
    assert layout.lookup("a.r.lo").offset == 4
    assert layout.lookup("a.r.wide").offset == 8


def test_padded_total_size_respected_and_enforced():
    cfg = make_config([{"name": "a", "parameters": [param("x", array_len=10)]}], padded=64)
    assert compute_layout(parse_config(cfg)).total_size == 64
    cfg = make_config([{"name": "a", "parameters": [param("x", array_len=100)]}], padded=64)
    with pytest.raises(LayoutError, match="exceeding"):
        compute_layout(parse_config(cfg))


def _random_spec(rng, n_modules=None):
    scalars = list(SCALAR_TYPES)
    modules = []
    for m in range(n_modules or rng.randint(1, 5)):
        params = []
        for p in range(rng.randint(1, 8)):
            if rng.random() < 0.2:
                members = [
                    param(f"f{k}", type=rng.choice(scalars))
                    for k in range(rng.randint(1, 4))
                ]
                params.append(
                    {"name": f"r{p}", "type": "record", "description": "rec", "members": members}
                )
            else:
                params.append(
                    param(f"p{p}", type=rng.choice(scalars), array_len=rng.randint(1, 6))
                )
        modules.append({"name": f"mod{m}", "parameters": params})
    return parse_config(make_config(modules))


def _oracle_offsets(layout):
    """Independent check: walk entries and recompute placement greedily."""
    offset_by_name = {}
    cursor = 0
    prev_module = None
    for entry in layout.entries:
        module = entry.name.split(".")[0]
        if module != prev_module:
            prev_module = module
        align = min(entry.elem_size, 8)
        cursor = entry.offset  # trust nothing below; validate invariants instead
        offset_by_name[entry.name] = cursor
        assert entry.offset % align == 0, f"{entry.name} misaligned"
    return offset_by_name


def test_layout_properties_random():
    rng = random.Random(42)
    for _ in range(300):
        spec = _random_spec(rng)
        layout = compute_layout(spec)
        # no overlap, declaration order is monotone
        spans = sorted((e.offset, e.offset + e.size, e.name) for e in layout.entries)
        for (a0, a1, _), (b0, b1, _) in zip(spans, spans[1:]):
            assert a1 <= b0, "entries overlap"
        declared = [e.offset for e in layout.entries]
        assert declared == sorted(declared), "placement reorders declarations"
        # natural alignment
        _oracle_offsets(layout)
        # determinism
        again = compute_layout(spec)
        assert again.map_hash == layout.map_hash
        assert [e.offset for e in again.entries] == declared


def test_monotonic_append_preserves_offsets():
    rng = random.Random(9)
    for _ in range(50):
        modules = [
            {"name": "a", "parameters": [param(f"p{i}", type=rng.choice(list(SCALAR_TYPES))) for i in range(4)]}
        ]
        base = compute_layout(parse_config(make_config(modules)))
        modules[-1]["parameters"].append(param("extra", type="u64"))
        extended = compute_layout(parse_config(make_config(modules)))
        for entry in base.entries:
            assert extended.lookup(entry.name).offset == entry.offset


# -- emission -----------------------------------------------------------


@pytest.fixture(scope="module")
def ref_layout():
    return reference_layout()


def test_emit_csv_roundtrip(ref_layout):
    text = emit_csv(ref_layout)
    name_map = LayoutedMap.from_csv(text, ref_layout.version)
    assert len(name_map.entries) == len(ref_layout.entries)
    for entry in ref_layout.entries:
        loaded = name_map.lookup(entry.name)
        assert (loaded.offset, loaded.size, loaded.type) == (entry.offset, entry.size, entry.type)


def test_emit_struct_mentions_every_module(ref_layout):
    text = emit_struct_decl(ref_layout)
    for module in ref_layout.spec.modules:
        assert module.name in text
    assert "#pragma pack(1)" in text


def test_emit_docs_lists_parameters(ref_layout):
    text = emit_docs(ref_layout)
    assert "i2c.r_count" in text
    assert ref_layout.lookup("i2c.r_count").description in text


def test_map_version_tracks_layout_changes(ref_layout):
    version, map_hash = ref_layout.version, ref_layout.map_hash
    assert version == "1.2.3"
    assert len(map_hash) == 16
    cfg = make_config([{"name": "a", "parameters": [param("x")]}], version="1.2.3")
    other = compute_layout(parse_config(cfg))
    assert other.map_hash != map_hash


# -- the bundled reference map ------------------------------------------


def test_reference_map_figures(ref_layout):
    assert len(ref_layout.entries) == 273
    occupied = sum(e.size for e in ref_layout.entries)
    assert occupied >= 1841
    assert ref_layout.total_size == 2048
    # the protocol examples depend on this address being stable
    assert ref_layout.lookup("i2c.r_count").offset == 334
    assert ref_layout.lookup("i2c.r_count").size == 1


def test_the_bundled_map_is_what_its_generator_writes():
    build = load_script("build_reference_config")
    expected = json.dumps(build.solve(), indent=2) + "\n"
    assert build.OUT.read_bytes() == expected.encode("utf-8")
