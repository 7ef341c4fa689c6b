"""Per-layer tracing by wrapping the package's public names.

Each name is wrapped where its caller looks it up: ``classify.py`` imports
``closure`` by name, so the wrapper goes on ``wakimoto.classify.closure``
as well as on ``wakimoto.span.closure``, which ``cyclic_probe`` calls.
Every wrapper keeps a call count, its inclusive time and its self time
(inclusive time minus the time of the wrapped calls nested in it).  The
coarse boundaries also record a span (name, start, end, parent span, and
the operation it belongs to); the hot inner calls (``reduce``, ``insert``,
single-mode actions) are only aggregated, so a traced run keeps memory
flat.  Everything stays in memory until ``write_spans``.  ``remove`` puts
the package's own names back, so traced and untraced operations can
alternate; the counts and times add up over every ``install``.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.op = -1
        self.excluded = 0.0  # seconds of bookkeeping taken out of every span
        self._stack: list[list] = []  # [start, child s, span id or parent id, excluded]
        self._saved: list[tuple] = []  # (owner, attr, the package's own value)

    # -- recording ----------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, record: bool = False, on_result=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            span_id = len(spans) if record else parent
            if record:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [perf_counter(), 0.0, span_id, self.excluded]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                excluded = self.excluded  # read first: a later sample stays in the span
                end = perf_counter()
                stack.pop()
                dur = end - frame[0] - (excluded - frame[3])
                if stack:
                    stack[-1][1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if record:
                    spans[span_id] = (span_id, parent, self.op, name, frame[0], end)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    def exclude(self, seconds: float) -> None:
        """Take time spent on measuring out of every span that is open."""
        self.excluded += seconds

    # -- installing ---------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        self._set(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def remove(self) -> None:
        """Undo ``install``, last patch first."""
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the layers of ``wakimoto`` at the names their callers use."""
        # the package re-exports the function ``classify`` over its module
        classify, cli, span, superalg, weyl = (
            importlib.import_module(f"wakimoto.{name}")
            for name in ("classify", "cli", "span", "superalg", "weyl")
        )

        counting = self._counting_closure(self.wrap("span.closure", span.closure, record=True))
        self._set(span, "closure", counting)
        self._set(classify, "closure", counting)
        for owner in (classify, weyl):
            self.patch(owner, "cyclic_probe", "span.cyclic_probe", record=True)
        self.patch(weyl, "joint_kernel", "span.joint_kernel", record=True)
        self.patch(span.SpanBasis, "insert", "span.insert",
                   on_result=lambda grew, a, k: grew and self.count("span.insert_grew"))
        self.patch(span.SpanBasis, "reduce", "span.reduce")
        self.patch(span.SpanBasis, "restricted_rows", "span.restricted_rows")

        self.patch(classify, "a_module_ops", "superalg.a_module_ops", record=True,
                   on_result=lambda ops, a, k: self.count("superalg.family_size", len(ops)))
        for owner in (superalg, classify):
            self.patch(owner, "apply_Gplus", "superalg.g")
            self.patch(owner, "apply_Gminus", "superalg.g")
        self.patch(superalg, "apply_psi_dmode", "fock.apply_psi")
        self.patch(classify, "enumerate_basis", "fock.enumerate", record=True)

        self.patch(weyl.WeylAction, "apply", "weyl.apply")
        self._set(weyl.WeylAction, "_RAW", {
            kind: self.wrap("weyl.raw", fn) for kind, fn in weyl.WeylAction._RAW.items()
        })
        self.patch(weyl, "wakimoto_ops", "weyl.wakimoto_ops", record=True,
                   on_result=lambda ops, a, k: self.count("weyl.family_size", len(ops)))
        self.patch(cli, "wakimoto_probe", "weyl.probe", record=True)
        self.patch(weyl, "affine_relation_check", "weyl.relation_check", record=True)
        self.patch(weyl, "enumerate_weyl_basis", "weyl.enumerate", record=True)

        self.patch(cli, "classify", "classify.classify", record=True)
        self.patch(cli, "verify_certificate", "classify.verify", record=True)
        self.patch(cli, "main", "cli.main", record=True)

    def _counting_closure(self, traced_closure):
        """Count op applications and dropped results inside one closure.

        A result is dropped when it is zero or leaves the window, the same
        test ``closure`` applies before inserting it.
        """
        tracer = self

        def closure(generators, ops, cfg, space, stop_if_contains=None):
            bound = cfg.weight_cutoff + cfg.excursion
            lo, hi = cfg.charge_window

            def counted(op):
                def apply(v):
                    w = op(v)
                    t = perf_counter()
                    tracer.count("span.op_applications")
                    if w.is_zero() or not all(
                        space.weight_of(s) <= bound and lo <= space.charge_of(s) <= hi
                        for s in w.terms
                    ):
                        tracer.count("span.op_results_dropped")
                    tracer.exclude(perf_counter() - t)
                    return w

                return apply

            wrapped = [(label, counted(op)) for label, op in ops]
            return traced_closure(generators, wrapped, cfg, space, stop_if_contains)

        return closure

    # -- results ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        def calls(name):
            return self.stats.get(name, [0, 0.0, 0.0])[0]

        def total(name):
            return self.stats.get(name, [0, 0.0, 0.0])[1]

        def own(name):
            return self.stats.get(name, [0, 0.0, 0.0])[2]

        c = self.counts.get
        return {
            "span.closure_calls": calls("span.closure"),
            "span.closure_s": own("span.closure"),
            "span.op_applications": c("span.op_applications", 0),
            "span.op_results_dropped": c("span.op_results_dropped", 0),
            "span.insert_calls": calls("span.insert"),
            "span.insert_grew": c("span.insert_grew", 0),
            "span.insert_s": total("span.insert"),
            "span.reduce_calls": calls("span.reduce"),
            "span.reduce_s": total("span.reduce"),
            "span.restricted_rows_s": total("span.restricted_rows"),
            "span.cyclic_probe_calls": calls("span.cyclic_probe"),
            "span.joint_kernel_s": total("span.joint_kernel"),
            "superalg.family_size": c("superalg.family_size", 0),
            "superalg.g_calls": calls("superalg.g"),
            "superalg.g_s": total("superalg.g"),
            "fock.apply_psi_calls": calls("fock.apply_psi"),
            "fock.apply_psi_s": total("fock.apply_psi"),
            "fock.enumerate_s": total("fock.enumerate"),
            "weyl.apply_calls": calls("weyl.apply"),
            "weyl.apply_s": own("weyl.apply"),
            "weyl.raw_calls": calls("weyl.raw"),
            "weyl.raw_s": total("weyl.raw"),
            "weyl.family_size": c("weyl.family_size", 0),
            "weyl.probe_s": own("weyl.probe"),
            "weyl.relation_check_s": own("weyl.relation_check"),
            "weyl.enumerate_s": total("weyl.enumerate"),
            "classify.classify_s": total("classify.classify"),
            "classify.verify_s": total("classify.verify"),
            "cli.main_s": own("cli.main"),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}) + "\n")
