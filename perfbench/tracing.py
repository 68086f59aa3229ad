"""Outside-in tracing of rankarg: wrap public functions at the names their
callers look up, record one span per call, and reduce the spans to the
per-layer metrics listed in BENCHMARK.json.

Nothing in the package changes.  Each wrapper calls the original function,
so the traced program computes exactly what the untraced one does; only the
time it takes differs (see ``calibrate_span_cost``).  Spans live in memory
as parallel lists and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import os
from time import perf_counter

#: The benchmark's own spans.  One root span covers one counted unit of work
#: (a fuzz pass or a rank request); a span under no root is set-up or gate
#: work and stays out of every metric.
ROOT = "bench.unit"

LAYERS = ("bench", "fuzz", "axioms", "semantics", "game", "framework", "orders", "cli")

#: (semantics id, function in rankarg.semantics that does that semantics' solve)
SOLVERS = (
    ("cat", "categoriser_scores"),
    ("saf", "saf_scores"),
    ("dbs", "dbs_vectors"),
    ("bbs", "bbs_vectors"),
    ("tuples", "tuples_values"),
    ("mt", "mt_scores"),
    ("grounded", "grounded_labelling"),
)

#: Properties whose check time is reported on its own; the other eleven are
#: summed as ``pairwise``.
OWN_CHECK_TIME = {"Abs": "abs", "In": "in", "+AB": "plus_ab", "+DB!": "plus_db_strict",
                  "+DB": "plus_db", "^AB": "inc_ab", "^DB": "inc_db"}

CONSTRUCTIONS = ("clone_fresh", "disjoint_union", "graft_branch", "rename", "connected_components")


class Tracer:
    """Span recorder plus the monkeypatches that feed it.

    ``recording`` is switched off once the counted units are done, so the
    rest of a timed run pays one attribute test per wrapped call.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.infos: list = []
        self.recording = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.infos.append(None)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, info=None, before=None) -> None:
        """Replace ``module.attr`` by a recording wrapper.

        ``before(args)`` runs ahead of the call and its value is handed to
        ``info(args, result, before_value)``, whose value is stored with the
        span.  A raised exception is stored as its class name.  A name the
        program no longer has is skipped; its metrics then read 0.
        """
        original = getattr(module, attr, None)
        if original is None:  # the program no longer has this boundary
            return
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            pre = before(args) if before is not None else None
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                tracer.close(index)
                tracer.infos[index] = type(exc).__name__
                raise
            tracer.close(index)
            if info is not None:
                tracer.infos[index] = info(args, result, pre)
            return result

        functools.update_wrapper(traced, original)
        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def install(self, rankarg) -> None:
        """Wrap every layer boundary the workloads cross."""
        fuzz, axioms, semantics = rankarg.fuzz, rankarg.axioms, rankarg.semantics
        self.wrap(fuzz, "build_matrix", "fuzz.build_matrix")
        self.wrap(fuzz, "shrink_witness", "fuzz.shrink_witness")
        self.wrap(fuzz, "check", "axioms.check",
                  info=lambda args, verdict, _: (args[0].value, verdict.status.name))

        cache = getattr(semantics, "cached_ranking", None)
        if hasattr(cache, "cache_info"):
            self.wrap(axioms, "cached_ranking", "semantics.cached_ranking",
                      before=lambda args: cache.cache_info().hits,
                      info=lambda args, _, hits: (cache.cache_info().hits > hits,
                                                  cache.cache_info().currsize))
        else:
            self.wrap(axioms, "cached_ranking", "semantics.cached_ranking")
        for sid, fn in SOLVERS:
            self.wrap(semantics, fn, f"semantics.solve.{sid}")
        self.wrap(semantics, "mt_reward_matrix", "semantics.mt_reward_matrix",
                  info=lambda args, matrix, _: (matrix.shape[0], matrix.shape[1],
                                                int((matrix != 0).any(axis=1).sum())))
        self.wrap(semantics, "game_value", "game.game_value",
                  info=lambda args, sol, _: (sol.pivots, sol.duality_gap,
                                             len(sol.row_strategy), len(sol.column_strategy)))
        for fn in ("ranking_from_scores", "ranking_from_vectors"):
            self.wrap(semantics, fn, "orders.ranking_build")
        for fn in ("group_geq", "group_gt"):
            self.wrap(axioms, fn, "orders.group_compare")
        for fn in CONSTRUCTIONS:
            self.wrap(axioms, fn, "framework.construct")
        for module in (axioms, semantics):
            self.wrap(module, "walk_counts", "framework.walk_counts")
            self.wrap(module, "branch_profiles", "framework.branch_profiles")
        self.wrap(rankarg.framework, "parse_apx", "framework.parse_apx")
        self.wrap(rankarg.cli, "output_record", "cli.output_record")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- reduction ---------------------------------------------------------

    def counted(self) -> list[int]:
        """Indices of the spans recorded under a root span, in order."""
        root_of: list[int] = []
        keep = []
        for i, parent in enumerate(self.parents):
            if parent < 0:
                root = i if self.names[i] == ROOT else -1
            else:
                root = root_of[parent]
            root_of.append(root)
            if root >= 0:
                keep.append(i)
        return keep

    def write(self, path: str) -> None:
        """One line per counted span: index, name, start, end, parent."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            out.write("index,name,start,end,parent\n")
            for i in self.counted():
                out.write(f"{i},{self.names[i]},{self.starts[i]:.9f},"
                          f"{self.ends[i]:.9f},{self.parents[i]}\n")

    def layer_metrics(self, units: int) -> dict[str, float]:
        """Per-layer metrics over the counted spans; ``units`` is the number
        of counted units they cover."""
        keep = self.counted()
        names, starts, ends, parents, infos = (self.names, self.starts, self.ends,
                                               self.parents, self.infos)
        duration = {i: ends[i] - starts[i] for i in keep}
        child_time = dict.fromkeys(keep, 0.0)
        for i in keep:
            if parents[i] >= 0:
                child_time[parents[i]] += duration[i]

        m: dict[str, float] = {}
        self_time = dict.fromkeys(LAYERS, 0.0)
        total_by_name: dict[str, float] = {}
        count_by_name: dict[str, int] = {}
        in_shrink: dict[int, bool] = {}
        in_request: dict[int, bool] = {}
        check_s = dict.fromkeys(list(OWN_CHECK_TIME.values()) + ["pairwise"], 0.0)
        shrink_checks = inconclusive = 0
        hits = misses = entries = 0
        failures: dict[str, int] = {}
        cells = rows = useful = 0
        pivots = tableau = 0
        max_gap = 0.0
        request_solves = 0
        for i in keep:
            name = names[i]
            parent = parents[i]
            self_time[name.split(".", 1)[0]] += duration[i] - child_time[i]
            total_by_name[name] = total_by_name.get(name, 0.0) + duration[i]
            count_by_name[name] = count_by_name.get(name, 0) + 1
            in_shrink[i] = name == "fuzz.shrink_witness" or (parent >= 0 and in_shrink[parent])
            in_request[i] = name == "cli.output_record" or (parent >= 0 and in_request[parent])
            info = infos[i]
            if isinstance(info, str):
                failures[info] = failures.get(info, 0) + 1
                continue
            if name == "axioms.check":
                prop, status = info
                check_s[OWN_CHECK_TIME.get(prop, "pairwise")] += duration[i]
                shrink_checks += in_shrink[i]
                inconclusive += status == "INCONCLUSIVE"
            elif name == "semantics.cached_ranking" and info is not None:
                hit, size = info
                hits += hit
                misses += not hit
                entries = max(entries, size)
            elif name.startswith("semantics.solve."):
                request_solves += in_request[i]
            elif name == "semantics.mt_reward_matrix":
                rows += info[0]
                cells += info[0] * info[1]
                useful += info[2]
            elif name == "game.game_value":
                pivots += info[0]
                max_gap = max(max_gap, info[1])
                m_rows, n_cols = info[2], info[3]
                tableau += (m_rows + 1) * (n_cols + m_rows + 1)

        def total(name):
            return total_by_name.get(name, 0.0)

        def count(name):
            return count_by_name.get(name, 0)

        wall = sum(duration[i] for i in keep if parents[i] < 0)
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_time[layer]
        m["fuzz.shrink_s"] = total("fuzz.shrink_witness")
        m["fuzz.shrink_checks"] = shrink_checks
        m["axioms.checks"] = count("axioms.check")
        for key, seconds in check_s.items():
            m[f"axioms.check_s.{key}"] = seconds
        m["axioms.inconclusive"] = inconclusive
        requests = count("semantics.cached_ranking")
        m["semantics.rank_requests"] = requests
        m["semantics.cache_hits"] = hits
        m["semantics.cache_misses"] = misses
        m["semantics.cache_hit_ratio"] = hits / requests if requests else 0.0
        m["semantics.cache_entries"] = entries
        for sid, _ in SOLVERS:
            m[f"semantics.solves.{sid}"] = count(f"semantics.solve.{sid}")
            m[f"semantics.solve_s.{sid}"] = total(f"semantics.solve.{sid}")
        m["semantics.nonconverged"] = failures.get("NonConvergenceError", 0)
        m["semantics.cap_refusals"] = failures.get("SizeCapExceededError", 0)
        m["semantics.mt_matrix_s"] = total("semantics.mt_reward_matrix")
        m["semantics.mt_matrix_cells"] = cells
        m["semantics.mt_matrix_mb_computed"] = cells * 8 / 1e6
        m["semantics.mt_useful_row_ratio"] = useful / rows if rows else 0.0
        m["game.solves"] = count("game.game_value")
        m["game.solve_s"] = total("game.game_value")
        m["game.pivots"] = pivots
        m["game.tableau_mb_computed"] = tableau * 8 / 1e6
        m["game.max_duality_gap"] = max_gap
        m["framework.constructions"] = count("framework.construct")
        m["framework.construct_s"] = total("framework.construct")
        m["framework.walk_counts_s"] = total("framework.walk_counts")
        m["framework.branch_profiles_s"] = total("framework.branch_profiles")
        m["framework.parse_s"] = total("framework.parse_apx")
        m["orders.ranking_build_s"] = total("orders.ranking_build")
        m["orders.group_compares"] = count("orders.group_compare")
        m["orders.group_compare_s"] = total("orders.group_compare")
        m["cli.output_record_s"] = total("cli.output_record")
        records = count("cli.output_record")
        m["cli.solves_per_request"] = request_solves / records if records else 0.0
        m["trace.wall_s"] = wall
        m["trace.unaccounted_s"] = wall - sum(self_time.values())
        m["trace.spans"] = len(keep)
        m["trace.units"] = units
        return m


def calibrate_span_cost(samples: int = 20_000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""
    class Box:
        @staticmethod
        def noop():
            return None

    plain = Box.noop
    start = perf_counter()
    for _ in range(samples):
        plain()
    bare = perf_counter() - start
    tracer = Tracer()
    tracer.wrap(Box, "noop", "bench.calibration")
    wrapped = Box.noop
    start = perf_counter()
    for _ in range(samples):
        wrapped()
    return max(0.0, (perf_counter() - start - bare) / samples)
