"""Fuzzing the plan boundary: ``ExperimentPlan.from_dict``, fault specs
and gating policies (hypothesis).

A plan canonicalizes itself at construction, so four properties must
hold for any input: the only error is ``ValueError``, a plan survives
its JSON round trip, canonicalizing is idempotent, and plans that
compare equal share one cache key.
"""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.faults import canonical_faults
from repro.harness.runner import ExperimentPlan
from repro.power import canonical_gating

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# -- spec spellings ---------------------------------------------------------

_spaces = st.sampled_from(["", " ", "  "])
_class = st.sampled_from(["B", "PW", "L", "W", "b", "pw", "l", "Q"])


def _spell_float(value):
    """A float in one of several equivalent spellings."""
    return st.sampled_from([repr(value), f"{value:g}", f"{value:e}",
                            f"{value:.10g}"])


_floats = st.one_of(st.floats(min_value=0.0, max_value=4.0),
                    st.sampled_from([float("inf"), float("nan"),
                                     1.0000001, 0.1250000001]))
_rates = st.one_of(st.floats(min_value=0.0, max_value=1.0),
                   st.sampled_from([1e-6, 1e-5, 1e-4, 0.9999996]))

_ber = _rates.flatmap(_spell_float).map(lambda v: f"ber={v}")
_kill = st.tuples(_class, st.sampled_from(["*", "c0", "c1", "cache", ""]),
                  st.integers(-2, 5000)).map(
    lambda t: f"kill={t[0]}@{t[1]}@{t[2]}")
_derate = st.lists(
    st.tuples(_class, _floats.flatmap(_spell_float)), min_size=1,
    max_size=3,
).map(lambda items: "derate=" + ",".join(f"{c}:{f}" for c, f in items))
_retries = st.integers(-1, 9).map(lambda n: f"retries={n}")
_clause = st.one_of(_ber, _kill, _derate, _retries,
                    st.sampled_from(["zap=1", "ber", "kill=L@c0"]))

fault_texts = st.one_of(
    st.lists(st.tuples(_spaces, _clause, _spaces), max_size=4).map(
        lambda parts: ";".join(f"{a}{c}{b}" for a, c, b in parts)),
    st.text(max_size=30),
)

_idle = st.tuples(st.integers(-1, 300), st.integers(-1, 600)).map(
    lambda t: f"idle:drowsy={t[0]},gate={t[1]}")
_ewma = st.tuples(
    st.integers(-1, 200), _floats.flatmap(_spell_float),
    st.one_of(st.none(), _floats.flatmap(_spell_float)),
    st.one_of(st.none(), st.integers(-1, 64)),
).map(lambda t: "ewma:halflife=%s,thr=%s%s%s" % (
    t[0], t[1], "" if t[2] is None else f",gthr={t[2]}",
    "" if t[3] is None else f",hold={t[3]}"))
_wakes = st.one_of(st.just(""), st.tuples(
    st.integers(0, 12), st.integers(0, 12)).map(
    lambda t: f",wake={t[0]},gwake={t[1]}"))

gating_texts = st.one_of(
    st.sampled_from(["", "never", " NEVER ", "never:", "idle", "ewma",
                     "bogus:x=1", "idle:bogus=1", "IDLE:drowsy=64"]),
    st.tuples(st.one_of(_idle, _ewma), _wakes).map("".join),
    st.text(max_size=30),
)

# -- plan dicts -------------------------------------------------------------

_json_scalar = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(allow_nan=False), st.text(max_size=8))
_json = st.recursive(
    _json_scalar,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=8), inner,
                                            max_size=3)),
    max_leaves=8,
)

_ints = st.integers(-(2 ** 40), 2 ** 40)
valid_plan_dicts = st.fixed_dictionaries(
    {"model_name": st.sampled_from(["I", "VII", "X", "dp@n45:B144:cw2"]),
     "benchmark": st.sampled_from(["gzip", "art", "mcf"])},
    optional={
        "num_clusters": st.sampled_from([4, 16]),
        "latency_scale": st.one_of(
            st.integers(1, 4),
            st.floats(min_value=0.25, max_value=4.0)),
        "instructions": _ints,
        "warmup": _ints,
        "seed": _ints,
        "policy_tag": st.text(max_size=8),
        "fault_spec": fault_texts,
        "gating_policy": gating_texts,
    },
)


def _mutated(data):
    """A plan dict with one field swapped for arbitrary JSON, or an
    extra/missing key."""
    keys = sorted(data) + ["bogus"]
    return st.tuples(st.sampled_from(keys), _json, st.booleans()).map(
        lambda t: ({k: v for k, v in data.items() if k != t[0]}
                   if t[2] else {**data, t[0]: t[1]}))


any_plan_input = st.one_of(_json, valid_plan_dicts,
                           valid_plan_dicts.flatmap(_mutated))


def _plan_or_none(data):
    """The plan ``data`` describes, or None when it is rejected."""
    try:
        return ExperimentPlan.from_dict(data)
    except ValueError:
        return None


# -- properties -------------------------------------------------------------

class TestOnlyValueError:
    @FUZZ
    @given(any_plan_input)
    def test_from_dict_raises_only_value_error(self, data):
        _plan_or_none(data)

    @FUZZ
    @given(fault_texts)
    def test_fault_specs_raise_only_value_error(self, text):
        try:
            canonical_faults(text)
        except ValueError:
            pass

    @FUZZ
    @given(gating_texts)
    def test_gating_policies_raise_only_value_error(self, text):
        try:
            canonical_gating(text)
        except ValueError:
            pass


class TestRoundTrip:
    @FUZZ
    @given(valid_plan_dicts)
    def test_plan_survives_its_json_round_trip(self, data):
        plan = _plan_or_none(data)
        if plan is None:
            return
        text = json.dumps(plan.to_dict())
        assert ExperimentPlan.from_dict(json.loads(text)) == plan
        assert ExperimentPlan.from_dict(plan.to_dict()) == plan


class TestIdempotence:
    @FUZZ
    @given(fault_texts)
    @example("ber=0.9999996")
    @example("derate=PW:1.0000001")
    def test_fault_canonical_is_a_fixed_point(self, text):
        try:
            once = canonical_faults(text)
        except ValueError:
            return
        assert canonical_faults(once) == once

    @FUZZ
    @given(gating_texts)
    @example("ewma:halflife=64,thr=0.5,gthr=0.1250000001")
    def test_gating_canonical_is_a_fixed_point(self, text):
        try:
            once = canonical_gating(text)
        except ValueError:
            return
        assert canonical_gating(once) == once

    @FUZZ
    @given(valid_plan_dicts)
    def test_rebuilding_a_plan_changes_nothing(self, data):
        plan = _plan_or_none(data)
        if plan is None:
            return
        again = ExperimentPlan(**plan.to_dict())
        assert again == plan
        assert again.to_dict() == plan.to_dict()


class TestEqualPlansShareOneKey:
    @FUZZ
    @given(valid_plan_dicts, valid_plan_dicts)
    def test_equal_plans_have_equal_keys(self, a, b):
        plan_a, plan_b = _plan_or_none(a), _plan_or_none(b)
        if plan_a is None or plan_b is None:
            return
        if plan_a == plan_b:
            assert plan_a.cache_key() == plan_b.cache_key()
            assert hash(plan_a) == hash(plan_b)

    @pytest.mark.parametrize("field, one, other", [
        ("latency_scale", 1, 1.0),
        ("fault_spec", "ber=1e-6", "ber=1e-06"),
        ("gating_policy", "never", ""),
    ])
    def test_equivalent_spellings_share_one_key(self, field, one, other):
        a = ExperimentPlan("X", "gzip", **{field: one})
        b = ExperimentPlan("X", "gzip", **{field: other})
        assert a == b
        assert a.cache_key() == b.cache_key()
        assert a.to_dict() == b.to_dict()

    def test_spellings_are_canonical_after_construction(self):
        plan = ExperimentPlan("X", "gzip", latency_scale=2,
                              fault_spec="kill=L@c0@100; KILL=b@c1@50",
                              gating_policy="never")
        assert plan.latency_scale == 2.0
        assert isinstance(plan.latency_scale, float)
        assert plan.fault_spec == "kill=B@c1@50;kill=L@c0@100"
        assert plan.gating_policy == ""

    @pytest.mark.parametrize("field, text", [
        ("fault_spec", "kill=L@c0"),
        ("gating_policy", "idle:bogus=1"),
    ])
    def test_malformed_specs_are_value_errors(self, field, text):
        with pytest.raises(ValueError, match=f"bad {field}"):
            ExperimentPlan("X", "gzip", **{field: text})
