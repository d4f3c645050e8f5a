"""The four behaviour digests, pinned: each hashes suite reports, replies or register images.

A change that alters a digest on purpose updates its pin here and records the old and new
values in CHANGES.md.
"""

from conftest import load_script

digests = load_script("behaviour_digest")


def test_suite_reports_give_the_pinned_suites_digest():
    assert digests.suites_digest() == "d89dde019f788e7644c1b87a1787a886a745cc2135f6a66de02904cd03a22b72"


def test_command_streams_give_the_pinned_streams_digest():
    assert digests.streams_digest() == "02f4f32a272f6b47fe4fba939cfba6ca7c3f3049df80b544b86874c32c44e7ea"


def test_served_suite_reports_give_the_pinned_served_digest():
    assert digests.served_digest() == "511b1e84441144197f6ffc826fae55d71f6652f415b2c3e640a62c3cdc0e9d6c"


def test_capture_streams_give_the_pinned_trace_digest():
    assert digests.trace_digest() == "9b6d0c4de4bb754f01cc5e01912577a5f76b56dbcde5f13fa605047c9f22a86c"
