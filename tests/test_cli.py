"""Line servers, the interactive shell, and the CLI."""

import io
import json
import os
import re
import shlex
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from click.testing import CliRunner

import hilsim
from hilsim.cli import main
from hilsim.memmap import emit_csv
from hilsim.dut import METADATA
from hilsim.harness import SUITE_NAMES
from hilsim.pal import RefDeviceClient, TransportError
from hilsim.reference import reference_config_text, reference_layout
from hilsim.repl import DeviceShell
from hilsim.serve import serve_stdio

from conftest import Tap, csv_map, make_bench, served

README = Path(__file__).resolve().parents[1] / "README.md"


# -- servers ------------------------------------------------------------


def test_serve_stdio_round_trip(bench):
    out = io.StringIO()
    serve_stdio(bench.refdev, infile=io.BytesIO(b"-v\n\nrr 204 1\n"), outfile=out)
    lines = out.getvalue().splitlines()
    assert json.loads(lines[0]) == {"version": "1.2.3", "result": 0}
    assert json.loads(lines[1]) == {"data": 85, "result": 0}


def test_serve_stdio_reads_a_byte_that_is_not_utf8_as_u_fffd():
    src = str(Path(hilsim.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8"}
    done = subprocess.run(
        [sys.executable, "-m", "hilsim.cli", "serve", "--stdio"],
        input=b"rr \xff 1\n-v\n", capture_output=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert [json.loads(line) for line in done.stdout.splitlines()] == [{"result": 1}, {"version": "1.2.3", "result": 0}]


# what a served device never runs: numpy, OpenSSL (the map digest), and the harness, PAL and REPL
NOT_SERVED = ("numpy", "_hashlib", "hilsim.harness", "hilsim.pal", "hilsim.repl")


def test_cli_import_and_serve_load_only_the_device():
    code = (
        f"import sys, hilsim.cli; loaded = lambda: sorted(set({NOT_SERVED!r}) & set(sys.modules)); "
        "assert not loaded(), loaded(); "
        "hilsim.cli.main(['serve', '--stdio'], standalone_mode=False); assert not loaded(), loaded()"
    )
    src = str(Path(hilsim.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code], input="-v\n", capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"version": "1.2.3", "result": 0}


def test_serve_tcp_with_pal_client(bench, map_dir):
    with served(bench.refdev) as [server]:
        client = RefDeviceClient(server.endpoint, map_dir)
        try:
            assert client.connect().ok
            assert client.read_reg("i2c.slave_addr_1").data == [85]
            assert client.write_and_execute("i2c.mode.nack_data", 1).ok
            assert client.read_reg("i2c.mode.nack_data").data == [1]
        finally:
            client.transport.close()


def test_serve_tcp_sequential_clients(bench, map_dir):
    """Clients take turns on one device: a write the first stages before it closes, the second commits."""
    with served(bench.refdev) as [server]:
        first = RefDeviceClient(server.endpoint, map_dir)
        try:
            assert first.connect().ok
            assert first.write_reg("user_reg.user_reg", 42).ok
        finally:
            first.transport.close()
        second = RefDeviceClient(server.endpoint, map_dir)
        try:
            assert second.connect().ok
            assert second.execute().ok  # same device: the first client's staged write commits
            assert second.read_reg("user_reg.user_reg").data == [42]
        finally:
            second.transport.close()


# -- shell --------------------------------------------------------------


@pytest.fixture
def shell(bench):
    client = RefDeviceClient(bench.refdev, csv_map())
    client.connect()
    out = io.StringIO()
    sh = DeviceShell(client, stdout=out)
    return sh, out


def test_shell_read_and_describe(shell):
    sh, out = shell
    sh.onecmd("read i2c.slave_addr_1")
    sh.onecmd("describe i2c.r_count")
    text = out.getvalue()
    assert "[85]" in text
    assert "offset 334" in text
    assert "type u8" in text


def test_shell_write_execute_and_raw(shell):
    sh, out = shell
    sh.onecmd("write_execute i2c.mode.nack_data 1")
    sh.onecmd("raw rr 191 1")
    assert '"data": 1' in out.getvalue()


def test_shell_commands_each_print_their_line(shell):
    sh, out = shell
    commands = [
        "connect",
        "write i2c.mode.nack_data 1",
        "write sys.sn 1",
        "execute",
        "read i2c.mode.nack_data",
        "write_execute i2c.mode.nack_data 0",
        "write_execute sys.sn 1",
        "names i2c.mode.nack",
        "read",
        "write_execute i2c.mode.nack_data",
        "raw  ",
    ]
    assert [sh.onecmd(line) for line in commands] == [None] * len(commands)
    assert sh.onecmd("exit") is True
    assert out.getvalue().splitlines() == [
        "connected, map version 1.2.3",
        "None",
        "error: sys.sn is read-only",
        "None",
        "[1]",
        "sent ['wr 191 0', 'wr 184 1', 'ex']",
        "error: sys.sn is read-only",
        "i2c.mode.nack_addr",
        "i2c.mode.nack_data",
        "usage: read <name> [index] [count]",
        "usage: write_execute <name> <value>",
        "usage: raw <line>",
    ]


def test_shell_completion(shell):
    sh, _ = shell
    matches = sh.complete_read("i2c.r", "read i2c.r", 5, 10)
    assert "i2c.r_count" in matches
    assert all(m.startswith("i2c.r") for m in matches)


def test_shell_survives_bad_input(shell):
    sh, out = shell
    sh.onecmd("read not.a.name")
    sh.onecmd("write")
    for line in ("read i2c.r_count x", "write i2c.r_count zz", "write_execute i2c.slave_addr_1 q"):
        sh.onecmd(line)
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("error") and lines[1].startswith("usage")
    assert [line.split(":")[0] for line in lines[2:]] == ["error"] * 3
    assert "invalid literal" in lines[2] and "'zz'" in lines[3] and "'q'" in lines[4]


def closed(line):
    """An ``answer`` for a device connection that is gone: every request raises."""
    raise TransportError("connection closed")


def test_shell_reports_a_dropped_connection_and_goes_on():
    client = RefDeviceClient(Tap(answer=closed), csv_map())
    commands = ["read i2c.slave_addr_1", "write i2c.mode.nack_data 1", "execute",
                "write_execute i2c.mode.nack_data 1", "raw rr 0 1", "describe i2c.r_count"]
    out = io.StringIO()
    sh = DeviceShell(client, stdin=io.StringIO("\n".join(commands) + "\n"), stdout=out)
    sh.use_rawinput = False
    sh.prompt = ""
    sh.cmdloop(intro="")
    lines = out.getvalue().splitlines()
    assert lines[:5] == ["error: connection closed"] * 5
    assert lines[5].startswith("i2c.r_count: offset 334")


# -- cli ----------------------------------------------------------------


def test_cli_generate(tmp_path):
    config = tmp_path / "map.json"
    config.write_text(reference_config_text(), "utf-8")
    result = CliRunner().invoke(main, ["generate", str(config), "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert names == {
        "ref_device_map.h.txt",
        "ref_device_map.csv",
        "ref_device_map.md",
        "ref_device_version.txt",
    }
    # the bundled map's published identity: a change to it is a change to every installed map
    assert (tmp_path / "out" / "ref_device_version.txt").read_text("utf-8") == "1.2.3 10599e7c71bd08ab\n"


def test_cli_generate_rejects_bad_config(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text('{"name": "m"}', "utf-8")
    result = CliRunner().invoke(main, ["generate", str(config), "--out-dir", str(tmp_path)])
    assert result.exit_code != 0


def test_readme_dut_serve_example_serves_one_request_on_stdio(tmp_path):
    """The README's ``dut serve`` line runs as written, with ``--stdio`` in place of ``--listen``
    and its fault file holding the flags the comment above the line shows."""
    lines = README.read_text("utf-8").splitlines()
    at = next(i for i, s in enumerate(lines) if s.startswith("hilsim dut serve"))
    flags = re.search(r"\{.*\}", lines[at - 1])
    assert flags, "the comment above the example shows the fault file's JSON"
    args = shlex.split(lines[at])[1:]
    listen = args.index("--listen")
    args[listen : listen + 2] = ["--stdio"]
    faults = args.index("--faults") + 1
    (tmp_path / args[faults]).write_text(flags.group(), "utf-8")
    args[faults] = str(tmp_path / args[faults])
    result = CliRunner().invoke(main, args, input="get_metadata\n")
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {"cmd": ["get_metadata"], "data": METADATA, "result": "Success"}


def test_cli_run_suite_help_names_every_packaged_suite():
    result = CliRunner().invoke(main, ["run-suite", "--help"])
    assert result.exit_code == 0, result.output
    assert f"--suite TEXT one of {', '.join(SUITE_NAMES)}, or a manifest path" in " ".join(result.output.split())


def test_cli_run_suite_local_json():
    result = CliRunner().invoke(main, ["run-suite", "--suite", "uart", "--format", "json", "--seed", "3"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["suite"] == "uart"
    assert doc["totals"]["fail"] == 0


def test_cli_run_suite_detects_faults(tmp_path):
    faults = tmp_path / "faults.json"
    faults.write_text('{"extra_read_byte": true}', "utf-8")
    result = CliRunner().invoke(
        main, ["run-suite", "--suite", "i2c", "--faults", str(faults), "--format", "json"]
    )
    assert result.exit_code == 1
    doc = json.loads(result.output)
    assert doc["totals"]["fail"] >= 1


def test_cli_run_suite_fails_only_the_cases_that_lack_a_key(tmp_path):
    suite = tmp_path / "suite.json"
    sync = {"op": "dut", "cmd": "sync"}
    cases = [
        {"id": "no-cmd", "steps": [{"op": "dut"}]},
        {"id": "no-steps"},
        {"steps": []},
        {"id": "fine", "steps": [sync]},
    ]
    suite.write_text(json.dumps({"suite": "partial", "cases": cases}), "utf-8")
    result = CliRunner().invoke(main, ["run-suite", "--suite", str(suite), "--format", "json"])
    assert result.exit_code == 1, result.output
    assert [(c["id"], c["verdict"], c["reason"]) for c in json.loads(result.output)["cases"]] == [
        ("no-cmd", "fail", """missing 'cmd' in {"op": "dut"}"""),
        ("no-steps", "fail", """missing 'steps' in {"id": "no-steps"}"""),
        ("", "fail", """missing 'id' in {"steps": []}"""),
        ("fine", "pass", ""),
    ]


def assert_bad_input(result, needle):
    """Exit 2, which is not the exit 1 of failed tests, with one line that says why."""
    assert result.exit_code == 2, result.output
    assert result.output.strip().splitlines() == [result.output.strip()]
    assert needle in result.output


def test_cli_run_suite_rejects_a_fault_file_that_is_not_an_object(tmp_path):
    faults = tmp_path / "faults.json"
    faults.write_text("[]", "utf-8")
    result = CliRunner().invoke(main, ["run-suite", "--suite", "i2c", "--faults", str(faults)])
    assert_bad_input(result, "JSON object")


def test_cli_run_suite_rejects_an_unknown_fault_flag(tmp_path):
    faults = tmp_path / "faults.json"
    faults.write_text('{"no_such_flag": true}', "utf-8")
    result = CliRunner().invoke(main, ["run-suite", "--suite", "i2c", "--faults", str(faults)])
    assert_bad_input(result, "no_such_flag")


def test_cli_run_suite_rejects_a_fault_flag_that_is_no_boolean(tmp_path):
    faults = tmp_path / "faults.json"
    faults.write_text('{"extra_read_byte": "false"}', "utf-8")
    result = CliRunner().invoke(main, ["run-suite", "--suite", "i2c", "--faults", str(faults)])
    assert_bad_input(result, "fault flag 'extra_read_byte' must be true or false")


@pytest.mark.parametrize(
    "manifest", [{"suite": "no-cases"}, [], {"cases": {}}, {"cases": [{"id": "c", "steps": []}, "c2"]}],
    ids=["no-cases", "a-list", "cases-an-object", "a-case-no-object"],
)
def test_cli_run_suite_rejects_a_manifest_without_a_cases_list(tmp_path, manifest):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps(manifest), "utf-8")
    result = CliRunner().invoke(main, ["run-suite", "--suite", str(suite)])
    assert_bad_input(result, "not a JSON object holding a 'cases' list of objects")


def test_cli_run_suite_rejects_an_endpoint_without_a_port(map_dir):
    result = CliRunner().invoke(
        main, ["run-suite", "--suite", "i2c", "--dut", "nohost", "--ref", "nohost", "--maps", map_dir]
    )
    assert_bad_input(result, "bad endpoint 'nohost'")


def test_cli_run_suite_rejects_remote_endpoints_without_maps():
    result = CliRunner().invoke(
        main, ["run-suite", "--suite", "i2c", "--dut", "127.0.0.1:1", "--ref", "127.0.0.1:1"]
    )
    assert_bad_input(result, "remote endpoints need a map directory")


@pytest.mark.parametrize(
    ("option", "value", "field"),
    [("--seed", "3", "seed"), ("--faults", "{tmp}/faults.json", "faults"), ("--ppm", "50", "dut_clock_ppm_error")],
)
def test_cli_run_suite_rejects_bench_options_on_a_remote_run(tmp_path, map_dir, option, value, field):
    (tmp_path / "faults.json").write_text('{"extra_read_byte": true}', "utf-8")
    remote = ["--dut", "127.0.0.1:1", "--ref", "127.0.0.1:1", "--maps", map_dir]
    result = CliRunner().invoke(main, ["run-suite", "--suite", "i2c", *remote, option, value.format(tmp=tmp_path)])
    assert_bad_input(
        result,
        f"remote endpoints serve their own bench, so {field} cannot be set here: "
        "hilsim serve --seed sets a served bench's seed; faults, ppm and the pin map apply to a local bench only",
    )


SERVE_COMMANDS = (["serve"], ["dut", "serve"])


@pytest.mark.parametrize("command", SERVE_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("args", [[], ["--stdio", "--listen", "127.0.0.1:0"]], ids=["neither", "both"])
def test_cli_serve_takes_exactly_one_of_listen_or_stdio(command, args):
    result = CliRunner().invoke(main, command + args)
    assert result.exit_code == 2, result.output
    assert "pass exactly one of --listen or --stdio" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["serve", "--listen", "localhost"],
        ["serve", "--listen", ":65536"],
        ["serve", "--stdio", "--dut-listen", "bad"],
        ["dut", "serve", "--listen", "x:y"],
    ],
    ids=" ".join,
)
def test_cli_serve_rejects_a_malformed_address(args):
    result = CliRunner().invoke(main, args, input="")
    assert_bad_input(result, "expected host:port")


@pytest.fixture
def taken_port():
    """An address whose port another socket already listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        sock.listen()
        yield "127.0.0.1:%d" % sock.getsockname()[1]


@pytest.mark.parametrize(
    "args",
    [["serve", "--listen"], ["serve", "--stdio", "--dut-listen"], ["dut", "serve", "--listen"]],
    ids=" ".join,
)
def test_cli_serve_reports_a_taken_port_in_one_line(args, taken_port):
    result = CliRunner().invoke(main, args + [taken_port], input="")
    assert_bad_input(result, f"cannot listen on {taken_port}: ")


def test_cli_dump_trace(map_dir):
    bench = make_bench()
    bench.dut.handle_line("gpio_toggle 0")
    bench.dut.handle_line("gpio_toggle 0")
    with served(bench.refdev) as [server]:
        result = CliRunner().invoke(main, ["dump-trace", "--endpoint", server.endpoint, "--maps", map_dir])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert lines[0] == "index,pin,level,tick_ns"
    assert len(lines) == 3
    assert lines[1].startswith("0,0,1,")


def test_cli_dump_trace_reports_a_refused_read_in_one_line(map_dir):
    refusing_reads = Tap(make_bench().refdev, lambda line: '{"result": 4}' if line.startswith("rr") else None)
    with served(refusing_reads) as [server]:
        result = CliRunner().invoke(main, ["dump-trace", "--endpoint", server.endpoint, "--maps", map_dir])
    assert result.exit_code == 1, result.output
    assert result.output.strip() == "Error: read_reg trace.index: device result 4"


def answering_v_only(device, reply):
    """A loopback reference device that answers ``-v`` as ``device`` does and any other line with
    the bytes ``reply``, or closes the connection if ``reply`` is None; returns its endpoint."""
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        with listener:
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as requests:
                for raw in requests:
                    line = raw.decode().strip()
                    if line != "-v" and reply is None:
                        return
                    conn.sendall((device.handle_line(line).encode() if line == "-v" else reply) + b"\n")

    threading.Thread(target=run, daemon=True).start()
    return "{}:{}".format(*listener.getsockname()[:2])


@pytest.mark.parametrize(
    "reply,error", [(b"garbage", "malformed reply 'garbage'"), (None, "connection closed")], ids=["garbage", "lost"]
)
def test_cli_dump_trace_reports_an_unreadable_reply_in_one_line(map_dir, reply, error):
    endpoint = answering_v_only(make_bench().refdev, reply)
    result = CliRunner().invoke(main, ["dump-trace", "--endpoint", endpoint, "--maps", map_dir])
    assert result.exit_code == 1, result.output
    assert result.output.strip() == f"Error: {error}"


REFERENCE_CSV = emit_csv(reference_layout())
HEADER, FIRST_ROW = REFERENCE_CSV.splitlines()[:2]


MALFORMED_MAPS = {
    "empty-version-file": (
        {"ref_device_map.csv": REFERENCE_CSV, "ref_device_version.txt": ""}, "ref_device_version.txt: no version"
    ),
    "unknown-type": (
        {"ref_device_1.2.3.csv": REFERENCE_CSV.replace(",u32,", ",u33,", 1)}, "ref_device_1.2.3.csv, row 4: unknown type 'u33'"
    ),
    "unknown-access": (
        {"ref_device_1.2.3.csv": REFERENCE_CSV.replace(",read-only,", ",ro,", 1)}, "ref_device_1.2.3.csv, row 2: unknown type 'u8' or access 'ro'"
    ),
    "short-row": (
        {"ref_device_1.2.3.csv": REFERENCE_CSV.replace(FIRST_ROW, FIRST_ROW.split(",u8,")[0])}, "ref_device_1.2.3.csv, row 2: unknown type None"
    ),
    "bad-number": (
        {"ref_device_1.2.3.csv": REFERENCE_CSV.replace("sys.sn,0,", "sys.sn,x,", 1)}, "ref_device_1.2.3.csv, row 2: invalid literal"
    ),
    "missing-column": (
        {"ref_device_1.2.3.csv": REFERENCE_CSV.replace(HEADER, HEADER.replace(",description", ""))}, "ref_device_1.2.3.csv, row 2: no 'description' column"
    ),
    "negative-offset": (
        {"ref_device_1.2.3.csv": REFERENCE_CSV.replace("sys.sn,0,", "sys.sn,-4,", 1)}, "ref_device_1.2.3.csv, row 2: negative offset -4"
    ),
    "zero-size": (
        {"ref_device_1.2.3.csv": REFERENCE_CSV.replace("sys.fw_rev,12,4,", "sys.fw_rev,12,0,", 1)},
        "ref_device_1.2.3.csv, row 3: size 0 is no positive multiple of 1, the size of u8",
    ),
    "size-between-elements": (
        {"ref_device_1.2.3.csv": REFERENCE_CSV.replace("i2c.slave_addr_1,204,2,", "i2c.slave_addr_1,204,3,", 1)},
        "ref_device_1.2.3.csv, row 37: size 3 is no positive multiple of 2, the size of u16",
    ),
    "offset-inside-the-row-before": (
        {"ref_device_1.2.3.csv": REFERENCE_CSV.replace("sys.fw_rev,12,", "sys.fw_rev,10,", 1)},
        "ref_device_1.2.3.csv, row 3: offset 10 is below 12, where the row before ends",
    ),
    "repeated-name": (
        {"ref_device_1.2.3.csv": REFERENCE_CSV.replace("sys.fw_rev,", "sys.sn,", 1)}, "ref_device_1.2.3.csv, row 3: repeated name 'sys.sn'"
    ),
}


@pytest.mark.parametrize("command", ["dump-trace", "shell", "run-suite"])
@pytest.mark.parametrize("files,error", MALFORMED_MAPS.values(), ids=MALFORMED_MAPS)
def test_a_malformed_map_directory_is_bad_input_in_one_line(command, files, error, tmp_path):
    for name, text in files.items():
        (tmp_path / name).write_text(text, "utf-8")
    bench = make_bench()
    with served(bench.refdev, bench.dut) as [ref, dut]:
        if command == "run-suite":
            args = ["run-suite", "--suite", "infrastructure", "--ref", ref.endpoint, "--dut", dut.endpoint]
        else:
            args = [command, "--endpoint", ref.endpoint]
        result = CliRunner().invoke(main, args + ["--maps", str(tmp_path)], input="")
    assert_bad_input(result, error)


@pytest.mark.parametrize("command", ["dump-trace", "shell"])
def test_a_client_command_rejects_an_endpoint_without_a_port(command, map_dir):
    result = CliRunner().invoke(main, [command, "--endpoint", "nohost", "--maps", map_dir], input="")
    assert_bad_input(result, "bad endpoint 'nohost'")


def test_cli_serve_mutually_exclusive_flags():
    result = CliRunner().invoke(main, ["serve"])
    assert result.exit_code != 0
    assert "exactly one" in result.output
