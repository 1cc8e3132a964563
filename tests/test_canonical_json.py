"""The canonical encoder against its oracle, the stdlib call it replaces.

:func:`repro.util.canonical_json.dumps` must return exactly
``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` — on arbitrary JSON
trees (Hypothesis), on the inputs its fast paths could get wrong (strings
holding the separators and brackets it writes, non-string keys, floats outside the
JSON grammar, empty containers) and on every payload kind the service
serves.  The API tests compare served bytes with ``json_bytes``, which
runs this encoder, so the stdlib comparisons here are the byte-identity
oracle for the whole wire format.
"""

from __future__ import annotations

import datetime as dt
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.golden import fingerprint_to_json
from repro.scenarios.runner import ScenarioReport
from repro.service.api import QueryService
from repro.service.store import ArchiveStore
from repro.util.canonical_json import dumps


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def outcome(encode, obj):
    """The encoding, or the type and message of the error it raised."""
    try:
        return encode(obj)
    except (TypeError, ValueError) as error:
        return type(error), str(error)


#: Strings made to collide with the structure the encoder writes or escapes.
TRICKY = ["", "\n", "\r\n", '"', "\\", "},", "}," + "\n    {", "[", "{", "]",
          "}", ",\n  ", ": ", "\x00", "\x1f", "\x7f", "é", "日本", " ",
          "\ud800", "😀", "null", "NaN"]

texts = st.one_of(st.sampled_from(TRICKY), st.text(max_size=12),
                  st.lists(st.sampled_from(TRICKY), max_size=4).map("".join))
scalars = st.one_of(
    st.none(), st.booleans(), texts,
    st.integers(), st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e300, 5e-324, 0.1, float("nan"),
                     float("inf"), float("-inf")]))
KEY_KINDS = [texts, st.integers(), st.floats(allow_nan=False), st.booleans(),
             st.none()]
keys = st.one_of(*KEY_KINDS)
#: Each dict draws its keys of one type, so they are sortable.
flat_dicts = st.one_of(*(st.dictionaries(kind, scalars, max_size=4)
                         for kind in KEY_KINDS))


def trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.lists(flat_dicts, max_size=4),
            st.dictionaries(texts, children, max_size=4),
            st.dictionaries(st.integers(), children, max_size=3)),
        max_leaves=30)


class TestStdlibOracle:
    @settings(max_examples=400, deadline=None)
    @given(trees(scalars))
    def test_any_tree_matches_stdlib(self, tree):
        assert dumps(tree) == stdlib(tree)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(flat_dicts, min_size=1, max_size=6),
           st.integers(min_value=0, max_value=3))
    def test_lists_of_flat_dicts_at_any_depth(self, items, depth):
        tree = items
        for _ in range(depth):
            tree = {"nested": [tree, 1]}
        assert dumps(tree) == stdlib(tree)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(keys, scalars, max_size=5),
           st.dictionaries(keys, st.lists(scalars, max_size=2), max_size=3))
    def test_mixed_keys_match_stdlib_or_its_error(self, flat, nested):
        # Keys of different types may be unsortable: then both raise the
        # same TypeError, from the C path (flat) and the walk (nested).
        assert outcome(dumps, flat) == outcome(stdlib, flat)
        assert outcome(dumps, nested) == outcome(stdlib, nested)

    @pytest.mark.parametrize("value", [
        "}," + "\n  {", {"a": "},\n    {"}, [{"a": "}"}, {"b": "{"}],
        [{"a": 1}, {}], [{}, {"a": 1}], [{}], [[]], {"a": {}}, [(), ()],
        {1: "int", 2: [1]}, {2.5: 1, -0.0: [2]}, {True: 1, False: [0]},
        {None: [None]}, {float("nan"): 1}, {float("inf"): [1]},
        (1, (2, (3,))), [float("nan"), float("inf"), float("-inf")],
        [2 ** 100, -(2 ** 100)], {"x": [{"date": "2018-01-01", "rank": 1}]},
        "\x00\n\"\\é", 0, -0.0, None, True, "",
    ])
    def test_edge_cases(self, value):
        assert dumps(value) == stdlib(value)

    @pytest.mark.parametrize("value", [
        {1: "a", "b": 2}, {1: ["a"], "b": [2]}, {None: 1, "a": 2},
        {(1, 2): 1}, {(1, 2): [1]}, [set()], {"a": object()},
        [{"a": b"x"}, {"a": 1}], {"a": [dt.date(2018, 1, 1)]}, dt.date(2018, 1, 1),
    ])
    def test_unsupported_inputs_raise_the_stdlib_error(self, value):
        expected = outcome(stdlib, value)
        assert isinstance(expected, tuple) and expected[0] is TypeError
        assert outcome(dumps, value) == expected

    def test_circular_input_raises_the_stdlib_error(self):
        loop: list = []
        loop.append(loop)
        with pytest.raises(ValueError, match="Circular reference"):
            dumps(loop)


@pytest.fixture(scope="module")
def served(tmp_path_factory, small_run):
    store = ArchiveStore.from_archives(tmp_path_factory.mktemp("canonical"),
                                       small_run.archives)
    store.save_report(ScenarioReport(
        profile="canonical", description='nested "fixture" é',
        config={"n_days": 3, "ratio": 0.125}, top_k=10,
        providers={"alexa": {"series": [0.5, 1e-9], "ranks": [{"r": 1}]}},
        intersection={"pairs": {}}, recommendations={"plan": [[1, 2], []]}))
    return QueryService(store), small_run.archives


class TestServedPayloads:
    """Every payload kind, served, equals the stdlib encoding of it."""

    def test_every_payload_kind_matches_stdlib(self, served):
        service, archives = served
        dates = [d.isoformat() for d in archives["alexa"].dates()]
        domain = archives["alexa"][0].entries[0]
        window = f"start={dates[1]}&end={dates[-2]}"
        empty = f"start={dates[-1]}&end={dates[0]}"
        expected = {
            "/v1/meta": service.meta_payload(),
            f"/v1/domains/{domain}/history": service.domain_history_payload(domain),
            f"/v1/domains/{domain}/history?top_k=3":
                service.domain_history_payload(domain, top_k=3),
            f"/v1/domains/{domain}/history?{window}":
                service.domain_history_payload(
                    domain, start=dt.date.fromisoformat(dates[1]),
                    end=dt.date.fromisoformat(dates[-2])),
            f"/v1/domains/{domain}/history?{empty}&top_k=5":
                service.domain_history_payload(
                    domain, start=dt.date.fromisoformat(dates[-1]),
                    end=dt.date.fromisoformat(dates[0]), top_k=5),
            "/v1/providers/alexa/stability": service.provider_stability_payload("alexa"),
            "/v1/providers/alexa/stability?top_n=50":
                service.provider_stability_payload("alexa", top_n=50),
            "/v1/compare?providers=alexa,majestic":
                service.compare_payload(["alexa", "majestic"]),
            "/v1/compare?providers=alexa,umbrella&top_n=50":
                service.compare_payload(["alexa", "umbrella"], top_n=50),
            "/v1/replication/log?since=0&max=2": service.replication_log_payload(0, 2),
        }
        payload = expected[f"/v1/domains/{domain}/history?{empty}&top_k=5"]
        assert all(section["observations"] == []
                   for section in payload["providers"].values())
        for target, document in expected.items():
            response = service.handle_request(target)
            assert response.status == 200, target
            assert bytes(response.body) == stdlib(document).encode(), target

        batch = service.handle_request(
            "/v1/query", method="POST",
            body=json.dumps({"requests": list(expected)[:4] + ["/nope"]}).encode())
        error = service.handle_request("/v1/providers/ghost/stability")
        report = service.handle_request("/v1/scenarios/canonical/report")
        assert (batch.status, error.status, report.status) == (200, 404, 200)
        for response in (batch, error, report):
            body = bytes(response.body)
            assert stdlib(json.loads(body)).encode() == body
        stored = ScenarioReport.from_json(bytes(report.body).decode())
        assert stored.to_json() == stdlib(stored.to_dict())

    def test_fingerprint_and_manifest_match_stdlib(self, served):
        service, _ = served
        fingerprint = {"alexa": {"churn": 0.25, "head": "ab"}, "n": [1, 2.0]}
        assert fingerprint_to_json(fingerprint) == stdlib(fingerprint)
        manifest = service.store._manifest_path.read_text(encoding="utf-8")
        assert manifest == stdlib(json.loads(manifest))
