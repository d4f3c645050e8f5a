"""The behaviour digests, pinned: each hashes suite reports, replies, register images or generated text.

A change that alters a digest on purpose updates its pin here and records the old and new
values in CHANGES.md.
"""

from conftest import load_script

digests = load_script("behaviour_digest")


def test_suite_reports_give_the_pinned_suites_digest():
    assert digests.suites_digest() == "5690df97a6e2a998822d656cc78ae7e93ed96b2c514433c25e8c4b1c5e281f9b"


def test_command_streams_give_the_pinned_streams_digest():
    assert digests.streams_digest() == "c99f74f43393f77583ae2846f117c79a594338ddc159baab78322a34630dac3f"


def test_served_suite_reports_give_the_pinned_served_digest():
    assert digests.served_digest() == "f6bc7ce9a8acf6f730115a5e69a3c0c04899ef05dd1080ba6bd440a9c4e41b7c"


def test_capture_streams_give_the_pinned_trace_digest():
    assert digests.trace_digest() == "4c8dd0cc3e41fffb68a635e6600573fb4b659be754e2afcc24dd286b04b8e0d8"


def test_the_bundled_map_gives_the_pinned_generator_digest():
    assert digests.generator_digest() == "987741dd059e336e5b882c2a5251eb4bdb7426190a105dda1f1b8a623a55b52f"
