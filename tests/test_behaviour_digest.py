"""The two fast behaviour digests, pinned: each hashes the whole register image after every command.

A change that alters either digest on purpose updates its pin here and records the old and
new values in CHANGES.md.
"""

from conftest import load_script

digests = load_script("behaviour_digest")


def test_capture_streams_give_the_pinned_trace_digest():
    assert digests.trace_digest() == "9b6d0c4de4bb754f01cc5e01912577a5f76b56dbcde5f13fa605047c9f22a86c"


def test_command_streams_give_the_pinned_streams_digest():
    assert digests.streams_digest() == "02f4f32a272f6b47fe4fba939cfba6ca7c3f3049df80b544b86874c32c44e7ea"
