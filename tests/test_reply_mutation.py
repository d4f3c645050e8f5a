"""Seeded reply mutations: one altered reply in a five-suite run costs at most its own case.

A wrapper transport alters the k-th reply of one endpoint during a local run of the five
packaged suites. Whatever the alteration, ``run_suite`` returns and every case has a verdict;
the case that got the altered reply fails, or else gets the verdict and ``measured`` of an
unaltered run.
"""

import json
import random

import pytest

from hilsim.harness import SUITE_NAMES, RunConfig, SuiteRunner
from hilsim.harness.report import FAIL, PASS, SKIP

from conftest import nested_reply

SEED = 9


def _data_list(data):
    return data if isinstance(data, list) else [data]


class RawText(str):
    """Reply text an alteration sends as it is, not JSON-encoded."""


# each alteration takes a reply's fields and returns the JSON value sent instead, or ``RawText``;
# the "data" ones apply to replies that carry data, the "result" ones to replies that carry a result
ALTERATIONS = {
    "data shortened": lambda f: {**f, "data": _data_list(f["data"])[:-1]},
    "data lengthened": lambda f: {**f, "data": _data_list(f["data"]) + [0]},
    "data out of range": lambda f: {**f, "data": [256, *f["data"][1:]] if isinstance(f["data"], list) else 256},
    "data of the wrong type": lambda f: {**f, "data": [str(v) for v in _data_list(f["data"])]},
    "data missing": lambda f: {k: v for k, v in f.items() if k != "data"},
    "result missing": lambda f: {k: v for k, v in f.items() if k != "result"},
    "result of the wrong type": lambda f: {**f, "result": [f["result"]]},
    "empty object": lambda f: {},
    "JSON non-object": lambda f: [f],
    "nested past the recursion limit": lambda f: RawText(nested_reply(f)),
    "data as floats": lambda f: {**f, "data": [float(v) if type(v) is int else v for v in _data_list(f["data"])]},
    "data as bools": lambda f: {**f, "data": [bool(v) for v in _data_list(f["data"])]},
    "result as float": lambda f: {**f, "result": 0.0},
    "result as bool": lambda f: {**f, "result": False},
}


def _touches(alteration, fields):
    key = alteration.split()[0]
    return key not in ("data", "result") or key in fields


class Mutating:
    """Serves a device in process, recording each reply's fields and the case it answered.

    If ``k`` is set, the k-th reply is replaced by ``alter`` of its fields, and ``altered``
    names the case that got it.
    """

    def __init__(self, device, k=None, alter=None):
        self.device = device
        self.k = k
        self.alter = alter
        self.case = None
        self.replies = []  # (case, fields) of each reply, before any alteration
        self.altered = None

    def request(self, line):
        reply = self.device.handle_line(line)
        fields = json.loads(reply)
        if len(self.replies) == self.k:
            self.altered = self.case
            sent = self.alter(fields)
            reply = sent if isinstance(sent, RawText) else json.dumps(sent)
        self.replies.append((self.case, fields))
        return reply

    def close(self):
        pass


def run_five_suites(seed, endpoint=None, k=None, alter=None):
    """A local five-suite run with both transports wrapped; returns the wrappers and each case's result."""
    runner = SuiteRunner.local(RunConfig(seed=seed))
    wrappers = {
        "ref": Mutating(runner.bench.refdev, *((k, alter) if endpoint == "ref" else ())),
        "dut": Mutating(runner.bench.dut, *((k, alter) if endpoint == "dut" else ())),
    }
    runner.phil.transport = wrappers["ref"]
    runner.dut.transport = wrappers["dut"]
    run_case = runner.run_case

    def run_named_case(case):
        for wrapper in wrappers.values():
            wrapper.case = case["id"]
        return run_case(case)

    runner.run_case = run_named_case
    results = {}
    for suite in SUITE_NAMES:
        for case in runner.run_suite(suite).cases:
            results[case.id] = case
    return wrappers, results


@pytest.fixture(scope="module")
def unaltered():
    return run_five_suites(SEED)


# seed s alters a reply of CHOICES[s % len(CHOICES)], so each choice is tried twice
CHOICES = [(endpoint, alteration) for endpoint in ("ref", "dut") for alteration in ALTERATIONS]


@pytest.mark.parametrize("seed", range(2 * len(CHOICES)))
def test_an_altered_reply_fails_at_most_its_own_case(unaltered, seed):
    wrappers, expected = unaltered
    endpoint, alteration = CHOICES[seed % len(CHOICES)]
    candidates = [i for i, (_, fields) in enumerate(wrappers[endpoint].replies) if _touches(alteration, fields)]
    k = random.Random(seed).choice(candidates)
    altered_wrappers, results = run_five_suites(SEED, endpoint, k, ALTERATIONS[alteration])
    victim = altered_wrappers[endpoint].altered
    assert victim is not None
    assert results.keys() == expected.keys()
    assert all(case.verdict in (PASS, FAIL, SKIP) for case in results.values())
    case = results[victim]
    if case.verdict != FAIL:
        assert (case.verdict, case.measured) == (expected[victim].verdict, expected[victim].measured), case.reason
