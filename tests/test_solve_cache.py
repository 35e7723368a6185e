"""Unit tests of the canonical solve cache (:mod:`repro.milp.cache`).

Covers the canonical key (stability, row-order/scaling/sign invariance,
difference detection), the two storage tiers (LRU eviction, disk roundtrip,
corrupt-blob handling), and the registry integration (hit/store counters,
telemetry provenance, the poisoned-hit evict-and-resolve path).
"""

from __future__ import annotations

import hashlib
import json
import math
from unittest import mock

import pytest

from repro.milp import cache as cache_mod
from repro.milp.cache import (
    CACHE_DIR_ENV,
    SolveCache,
    blob_from_solution,
    canonical_form_key,
    canonical_form_text,
    clear_caches,
    get_cache,
    record_store,
    resolve_cache_dir,
)
from repro.milp.model import Model
from repro.milp.solution import DEFAULT_MIP_REL_GAP, Solution, SolveStatus
from repro.milp.solvers import scipy_backend
from repro.milp.solvers.registry import solve


def _small_model(*, flip_row=False, scale_row=1.0, coefficient=4.0,
                 reorder=False) -> Model:
    """A tiny MILP whose structural variants the key tests exercise."""
    m = Model("t")
    x = m.add_continuous("x", lb=0.0, ub=10.0)
    b = m.add_binary("b")

    def row1():
        if flip_row:
            m.add_constraint(-scale_row * x - scale_row * coefficient * b
                             >= -scale_row * 8.0)
        else:
            m.add_constraint(scale_row * x + scale_row * coefficient * b
                             <= scale_row * 8.0)

    def row2():
        m.add_constraint(x - 2.0 * b >= -1.0)

    if reorder:
        row2(), row1()
    else:
        row1(), row2()
    m.set_objective(-(x + 2.0 * b))
    return m


def _form(**kwargs):
    return _small_model(**kwargs).to_standard_form()


class TestCanonicalKey:
    def test_stable_across_rebuilds(self):
        assert canonical_form_key(_form()) == canonical_form_key(_form())

    def test_row_order_invariant(self):
        assert canonical_form_key(_form()) == \
            canonical_form_key(_form(reorder=True))

    def test_row_scaling_invariant(self):
        assert canonical_form_key(_form()) == \
            canonical_form_key(_form(scale_row=3.5))

    def test_row_sign_invariant(self):
        """A row and its negation (bounds swapped) are the same constraint."""
        assert canonical_form_key(_form()) == \
            canonical_form_key(_form(flip_row=True))

    def test_detects_coefficient_change(self):
        assert canonical_form_key(_form()) != \
            canonical_form_key(_form(coefficient=4.0001))

    def test_detects_variable_class_change(self):
        m = Model("t")
        x = m.add_continuous("x", lb=0.0, ub=10.0)
        c = m.add_continuous("b", lb=0.0, ub=1.0)  # continuous, not binary
        m.add_constraint(x + 4.0 * c <= 8.0)
        m.add_constraint(x - 2.0 * c >= -1.0)
        m.set_objective(-(x + 2.0 * c))
        assert canonical_form_key(m.to_standard_form()) != \
            canonical_form_key(_form())

    def test_context_splits_keys(self):
        form = _form()
        assert canonical_form_key(form, context=("highs",)) != \
            canonical_form_key(form, context=("bnb",))

    def test_quantization_absorbs_float_noise(self):
        form_a = _form(scale_row=1.0)
        form_b = _form(scale_row=1.0 + 1e-15)
        assert canonical_form_key(form_a) == canonical_form_key(form_b)

    def test_distinct_keys_iff_distinct_texts(self):
        forms = [_form(), _form(coefficient=5.0), _form(reorder=True)]
        texts = [canonical_form_text(f) for f in forms]
        keys = [canonical_form_key(f) for f in forms]
        for i in range(len(forms)):
            for j in range(len(forms)):
                assert (texts[i] == texts[j]) == (keys[i] == keys[j])


def _optimal_solution(model: Model) -> Solution:
    return solve(model, backend="highs")


class TestTiers:
    def test_memory_roundtrip(self):
        model = _small_model()
        form = model.to_standard_form()
        cache = SolveCache()
        key = canonical_form_key(form)
        blob = blob_from_solution(_optimal_solution(model), form)
        cache.store(key, blob)
        found, tier = cache.lookup(key, len(form.variables))
        assert found == blob and tier == "memory"

    def test_lru_eviction(self):
        cache = SolveCache(max_entries=2)
        blob = {"version": cache_mod.BLOB_VERSION,
                "status": "optimal", "objective": 0.0, "values": []}
        for key in ("a", "b", "c"):
            cache.store(key, dict(blob))
        assert cache.n_memory_entries == 2
        found, _ = cache.lookup("a", 0)
        assert found is None  # oldest entry evicted

    def test_disk_roundtrip(self, tmp_path):
        model = _small_model()
        form = model.to_standard_form()
        blob = blob_from_solution(_optimal_solution(model), form)
        key = canonical_form_key(form)
        writer = SolveCache(tmp_path)
        writer.store(key, blob)
        reader = SolveCache(tmp_path)  # fresh memory tier
        found, tier = reader.lookup(key, len(form.variables))
        assert found == blob and tier == "disk"

    @pytest.mark.parametrize("payload", [
        "{ truncated", "", "[1, 2, 3]", "\x00\x01garbage"])
    def test_corrupt_blob_is_miss_and_removed(self, tmp_path, payload):
        cache = SolveCache(tmp_path)
        path = tmp_path / "deadbeef.json"
        path.write_text(payload)
        found, tier = cache.lookup("deadbeef", 3)
        assert found is None and tier is None
        assert not path.exists()

    def test_wrong_column_count_is_miss(self, tmp_path):
        cache = SolveCache(tmp_path)
        blob = {"version": cache_mod.BLOB_VERSION, "status": "optimal",
                "objective": 1.0, "values": [1.0, 2.0]}
        cache.store("k", blob)
        found, _ = cache.lookup("k", 3)
        assert found is None

    def test_env_var_resolution(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert resolve_cache_dir(None) == str(tmp_path)
        assert resolve_cache_dir("explicit") == "explicit"
        monkeypatch.delenv(CACHE_DIR_ENV)
        assert resolve_cache_dir(None) is None

    def test_get_cache_shares_instances(self, tmp_path):
        clear_caches()
        assert get_cache(tmp_path) is get_cache(tmp_path)
        assert get_cache(None) is not get_cache(tmp_path)


class TestRegistryIntegration:
    def test_hit_after_store(self):
        model = _small_model()
        cache = SolveCache()
        first = solve(model, backend="highs", cache=cache)
        second = solve(model, backend="highs", cache=cache)
        assert first.status is SolveStatus.OPTIMAL
        assert math.isclose(first.objective, second.objective)
        assert first.telemetry.cache["hit"] is False
        assert second.telemetry.cache["hit"] is True
        assert second.telemetry.cache["recertified"] is True
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_backends_do_not_share_entries(self):
        model = _small_model()
        cache = SolveCache()
        solve(model, backend="highs", cache=cache)
        other = solve(model, backend="bnb", cache=cache)
        assert other.telemetry.cache["hit"] is False

    @pytest.mark.parametrize("backend", ["highs", "bnb", "portfolio"])
    def test_a_solve_naming_no_gap_is_keyed_at_the_default_gap(self,
                                                                backend):
        """A solve that passes no ``mip_rel_gap`` runs at the backend's
        default gap, so it is keyed there: entries stored by solves at
        another gap are not served to it."""
        model = _small_model()
        cache = SolveCache()
        solve(model, backend=backend, cache=cache, mip_rel_gap=1e-4)
        default = solve(model, backend=backend, cache=cache)
        assert default.telemetry.cache["hit"] is False
        explicit = solve(model, backend=backend, cache=cache,
                         mip_rel_gap=DEFAULT_MIP_REL_GAP)
        assert explicit.telemetry.cache["hit"] is True

    def test_formulations_do_not_share_entries(self):
        """Regression: the formulation identity must be part of the key
        context.  Two encodings can canonicalize to different structural
        keys anyway, but the *same* structure solved under different
        declared formulations must never alias — the cached telemetry
        provenance (and any encoding-specific postsolve) would leak."""
        from repro.milp.telemetry import SolveContext

        model = _small_model()
        cache = SolveCache()
        first = solve(model, backend="highs", cache=cache,
                      context=SolveContext(formulation="bigm"))
        other = solve(model, backend="highs", cache=cache,
                      context=SolveContext(formulation="unary"))
        assert first.telemetry.cache["hit"] is False
        assert other.telemetry.cache["hit"] is False
        again = solve(model, backend="highs", cache=cache,
                      context=SolveContext(formulation="unary"))
        assert again.telemetry.cache["hit"] is True
        assert again.telemetry.context.formulation == "unary"

    def test_formulation_context_splits_keys(self):
        form = _form()
        base = ("highs", True, False, 0, 0)
        assert canonical_form_key(form, context=base + ("bigm",)) != \
            canonical_form_key(form, context=base + ("unary",))

    def test_outline_does_not_share_entries_with_open_outline(self):
        """Regression: the fixed outline must be part of the key context.
        An open-outline solve and a fixed-outline solve of the same
        structure reach different optima in general, so aliasing them
        would serve a stale result (and stale outline provenance)."""
        from repro.milp.telemetry import SolveContext

        model = _small_model()
        cache = SolveCache()
        open_outline = solve(model, backend="highs", cache=cache)
        fixed = solve(model, backend="highs", cache=cache,
                      context=SolveContext(outline=(10.0, 8.0)))
        assert open_outline.telemetry.cache["hit"] is False
        assert fixed.telemetry.cache["hit"] is False
        again = solve(model, backend="highs", cache=cache,
                      context=SolveContext(outline=(10.0, 8.0)))
        assert again.telemetry.cache["hit"] is True
        assert again.telemetry.context.outline == (10.0, 8.0)
        assert open_outline.telemetry.context.outline is None

    def test_different_outlines_do_not_share_entries(self):
        from repro.milp.telemetry import SolveContext

        model = _small_model()
        cache = SolveCache()
        solve(model, backend="highs", cache=cache,
              context=SolveContext(outline=(10.0, 8.0)))
        other = solve(model, backend="highs", cache=cache,
                      context=SolveContext(outline=(10.0, 9.0)))
        assert other.telemetry.cache["hit"] is False

    def test_outline_context_splits_keys(self):
        from repro.milp.telemetry import SolveContext

        form = _form()
        base = ("highs", True, False, 0, 0)
        open_key = canonical_form_key(
            form, context=base + SolveContext("bigm").key_items())
        fixed_key = canonical_form_key(
            form, context=base + SolveContext("bigm", (10.0, 8.0)).key_items())
        assert open_key != fixed_key
        # Quantization keeps float noise from splitting equal outlines.
        assert SolveContext(outline=(10.0, 8.0)).key_items() == \
            SolveContext(outline=(10.0 + 1e-12, 8.0)).key_items()

    def test_values_rebound_to_requesting_model(self):
        """A hit's values must be keyed by the *new* model's Variables."""
        cache = SolveCache()
        solve(_small_model(), backend="highs", cache=cache)
        rebuilt = _small_model()
        served = solve(rebuilt, backend="highs", cache=cache)
        assert served.telemetry.cache["hit"] is True
        names = {v.name for v in served.values}
        assert names == {v.name
                         for v in rebuilt.to_standard_form().variables}
        for var in rebuilt.to_standard_form().variables:
            assert var in served.values

    def test_non_optimal_is_not_stored(self):
        m = Model("infeasible")
        x = m.add_continuous("x", lb=0.0, ub=1.0)
        m.add_constraint(x >= 2.0)
        m.set_objective(x)
        cache = SolveCache()
        solution = solve(m, backend="highs", cache=cache)
        assert solution.status is not SolveStatus.OPTIMAL
        assert cache.stats.stores == 0
        assert cache.n_memory_entries == 0

    def test_poisoned_hit_is_evicted_and_resolved(self, tmp_path):
        """A blob claiming a wrong objective must fail re-certification,
        be evicted, and the model re-solved correctly."""
        model = _small_model()
        form = model.to_standard_form()
        cache = SolveCache(tmp_path)
        honest = solve(model, backend="highs", cache=cache)
        key = [p.stem for p in tmp_path.glob("*.json")]
        assert len(key) == 1
        path = tmp_path / f"{key[0]}.json"
        poisoned = json.loads(path.read_text())
        poisoned["objective"] = honest.objective - 5.0
        path.write_text(json.dumps(poisoned))
        cache.clear()  # force the disk tier to answer

        solution = solve(model, backend="highs", cache=cache)
        assert solution.telemetry.cache["hit"] is False
        assert math.isclose(solution.objective, honest.objective)
        assert cache.stats.rejected == 1
        assert cache.stats.evictions == 1
        # the honest re-solve overwrote the poisoned blob
        restored = json.loads(path.read_text())
        assert math.isclose(restored["objective"], honest.objective)
        assert len(form.variables) == len(restored["values"])

    def test_store_not_cacheable_annotates_telemetry(self):
        """Even a non-cacheable solve carries miss provenance."""
        m = Model("infeasible")
        x = m.add_continuous("x", lb=0.0, ub=1.0)
        m.add_constraint(x >= 2.0)
        m.set_objective(x)
        cache = SolveCache()
        solution = solve(m, backend="highs", cache=cache)
        assert solution.telemetry.cache is not None
        assert solution.telemetry.cache["hit"] is False

    def test_record_store_rejects_partial_values(self):
        model = _small_model()
        form = model.to_standard_form()
        solution = _optimal_solution(model)
        values = dict(solution.values)
        values.pop(next(iter(values)))
        import dataclasses

        partial = dataclasses.replace(solution, values=values)
        cache = SolveCache()
        assert record_store(cache, "k", partial, form) is False
        assert cache.n_memory_entries == 0


# ---------------------------------------------------------------------------
# pinned keys and telemetry of the solve context
# ---------------------------------------------------------------------------

def _declared(formulation=None, outline=None, eco=None) -> dict:
    """The solve()/solve_many() keyword arguments that declare how a model
    was built."""
    from repro.milp.telemetry import SolveContext

    return {"context": SolveContext(formulation=formulation, outline=outline,
                                    eco=eco)}


def _pinned_doc(telemetry) -> str:
    """``telemetry.to_dict()`` as JSON, with its clock readings zeroed."""
    doc = telemetry.to_dict()
    doc["wall_seconds"] = 0.0
    doc["incumbents"] = [[0.0, obj] for _seconds, obj in doc["incumbents"]]
    doc["cache"]["key_seconds"] = 0.0
    return json.dumps(doc)


#: One case per value of each axis, plus one with every axis set:
#: ``(formulation, outline, eco, presolve, warm start)`` -> the SHA-256
#: cache key, and the SHA-256 of :func:`_pinned_doc`.  Cache keys name the
#: blobs of on-disk cache tiers, so a changed key turns a warm tier cold;
#: ``formulation=None`` and ``"bigm"`` key apart for that reason.  HiGHS
#: reads neither presolve nor a warm start, so those two cases pin the
#: plain case's key and bytes.
CONTEXT_PINS = {
    (None, None, None, False, False): (
        "c9f69d73bb722259c9463a8dcd8cb6e135457a7601328f240ba9bab75ff4eb9a",
        "31faa899c33ed6d21c3f531a3fca44b33e72eaf99a92b2e8406de311e84fbc3f"),
    ("bigm", None, None, False, False): (
        "346e6ee051017bf1c84f2106b5a9cdb387e4b829937688f5a46c18d80ba8b0b2",
        "1ddb079caea066e082dbbf3fcdf233bfbadbc862fa1022d76b91dcb6610a51a4"),
    ("unary", None, None, False, False): (
        "a748223f7321b5f6c4e81cf7b49454c32de1ae9c213cd2cb288365aca34f8cf3",
        "b7eb93c6ce1ae1de5a633990800f56d6753c899b810a9ee323f435dd0d779b6c"),
    (None, (10, 8), None, False, False): (
        "b43b59708f0016105ad5bff2e08b19e08e1d4e6cdd978635edb1702d56fcd084",
        "18f7faeaad042037d6460b76a24e25238c372df79a538551d70b33cca66b3e63"),
    (None, None, (2, 7), False, False): (
        "cc0caf867e8526b7fb04763a4a854e640ee0520232236b311eb9698b1c11045c",
        "0ebaa64cda304fba59f0f70b5589b7f070d9f9d68b05466343e40de0caffc377"),
    (None, None, None, True, False): (
        "c9f69d73bb722259c9463a8dcd8cb6e135457a7601328f240ba9bab75ff4eb9a",
        "31faa899c33ed6d21c3f531a3fca44b33e72eaf99a92b2e8406de311e84fbc3f"),
    (None, None, None, False, True): (
        "c9f69d73bb722259c9463a8dcd8cb6e135457a7601328f240ba9bab75ff4eb9a",
        "31faa899c33ed6d21c3f531a3fca44b33e72eaf99a92b2e8406de311e84fbc3f"),
    ("unary", (10, 8), (2, 7), True, True): (
        "2edd9a6754e37224b1bc57ddc6610168721e7431b3f9d502edabe4ccbc69a55e",
        "78502eb40c6c8beb11f2f792ba71a87141887b4106cc08a4da353b0b7ad68ec3"),
}


@pytest.fixture
def keys(monkeypatch) -> list[str]:
    """Every cache key the registry computes during the test."""
    seen: list[str] = []

    def recording(form, context=()):
        seen.append(canonical_form_key(form, context))
        return seen[-1]

    monkeypatch.setattr(cache_mod, "canonical_form_key", recording)
    return seen


class TestContextPins:
    @pytest.mark.parametrize("case", list(CONTEXT_PINS),
                             ids=lambda case: "-".join(map(str, case)))
    def test_solve_key_and_telemetry_are_pinned(self, case, keys):
        formulation, outline, eco, presolve, warm = case
        model = _small_model()
        warm_start = {v: 0.0 for v in model.variables} if warm else None
        kwargs = dict(backend="highs", cache=SolveCache(), presolve=presolve,
                      warm_start=warm_start,
                      **_declared(formulation, outline, eco))
        solved = solve(model, **kwargs)
        served = solve(model, **kwargs)
        doc = _pinned_doc(solved.telemetry)
        digest = hashlib.sha256(doc.encode("utf-8")).hexdigest()
        assert (keys, digest) == ([CONTEXT_PINS[case][0]] * 2,
                                  CONTEXT_PINS[case][1]), doc
        # A hit carries the stored solve's telemetry, context included.
        assert served.telemetry.cache["hit"] is True
        assert {**json.loads(_pinned_doc(served.telemetry)), "cache": None} \
            == {**json.loads(doc), "cache": None}

    def test_parallel_batch_keys_match_the_pins(self, keys):
        """solve_many's parent-side keys of a parallel batch are the keys
        solve() computes."""
        from repro.milp.solvers.registry import solve_many

        case = ("unary", (10, 8), (2, 7), True, True)
        models = [_small_model(), _small_model()]
        warm_starts = [{v: 0.0 for v in m.variables} for m in models]
        solutions = solve_many(models, backend="highs", presolve=True,
                               warm_starts=warm_starts, cache=SolveCache(),
                               workers=2, **_declared(*case[:3]))
        assert keys == [CONTEXT_PINS[case][0]] * 2
        assert all(s.telemetry.cache["key"] == keys[0][:16]
                   for s in solutions)


# ---------------------------------------------------------------------------
# the HiGHS option profile in the key
# ---------------------------------------------------------------------------

class TestHighsProfileKey:
    """The backends that run HiGHS's MIP solver key on its effective option
    profile: what this HiGHS has of ``scipy_backend.HIGHS_PROFILE``."""

    def _keys_under(self, profile: dict, backend: str, keys) -> list[str]:
        with mock.patch.dict(scipy_backend.HIGHS_PROFILE, profile,
                             clear=True):
            solution = solve(_small_model(), backend=backend,
                             cache=SolveCache())
        assert solution.status is SolveStatus.OPTIMAL
        return keys[-1]

    def test_an_option_highs_lacks_is_dropped_and_kept_out_of_the_key(
            self, keys):
        with mock.patch.dict(scipy_backend.HIGHS_PROFILE,
                             {"no_such_highs_option": 1}, clear=True):
            assert scipy_backend.highs_profile() == ()
        assert self._keys_under({"no_such_highs_option": 1}, "highs", keys) \
            == self._keys_under({}, "highs", keys)

    @pytest.mark.parametrize("backend", ["highs", "portfolio"])
    def test_a_profile_option_splits_the_key(self, backend, keys):
        fj_off = {"mip_heuristic_run_feasibility_jump": False}
        assert self._keys_under(fj_off, backend, keys) \
            != self._keys_under({}, backend, keys)

    def test_backends_without_highs_mip_ignore_the_profile(self, keys):
        fj_off = {"mip_heuristic_run_feasibility_jump": False}
        assert self._keys_under(fj_off, "bnb", keys) \
            == self._keys_under({}, "bnb", keys)

    def test_no_bindings_keys_at_highs_defaults(self, keys):
        """Where ``_highspy`` is missing, milp runs HiGHS's defaults and
        the key says so."""
        fj_off = {"mip_heuristic_run_feasibility_jump": False}
        with mock.patch.object(scipy_backend, "_highs_core",
                               return_value=None):
            without = self._keys_under(fj_off, "highs", keys)
        assert without == self._keys_under({}, "highs", keys)
