"""Span tracing from outside the package, for the traced benchmark run.

`Tracer.install()` replaces the public functions of the package's layers
with timing wrappers in every module namespace and dispatch table that
holds them (`identities` keeps its own `J_power` binding, `sequences`
dispatches through a dict), wraps the ring and matrix operators on their
classes, and wraps each registered identity's check. Each call records a
span: group name, start, end, parent span and op id. Spans stay in memory
as flat arrays and are written out once, at the end.

A group's self time is the summed duration of its spans minus the part
covered by their child spans, so the self times of one op add up to the
duration of its root span, the call to `cli.main`.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

# module -> attribute -> span group
FUNCTIONS = {
    "sequences": {name: f"sequences.{name}" for name in
                  ("jac3_term", "lucas3_term", "T_term", "t_term", "jac3_binet")},
    "matrices": {name: f"matrices.{name}" for name in
                 ("generator", "J_power", "j_power", "M_matrix", "N_matrix",
                  "assemble_J_closed_form", "assemble_j_closed_form")},
    "identities": {"verify_all": "identities.engine", "verify_identity": "identities.engine"},
    "cli": {
        "main": "cli.parse", "build_parser": "cli.parse", "parse_k": "cli.parse",
        "parse_k_list": "cli.parse", "parse_range": "cli.parse",
        "run_term": "cli.run_term", "run_matrix": "cli.run_matrix",
        "run_table": "cli.run_table", "run_verify": "cli.run_verify",
    },
}

# (module, class) -> method -> span group
METHODS = {
    ("rings", "LaurentPolynomial"): {
        "__mul__": "rings.laurent_mul", "__rmul__": "rings.laurent_mul",
        "__add__": "rings.laurent_add", "__radd__": "rings.laurent_add",
        "__sub__": "rings.laurent_add", "__rsub__": "rings.laurent_add",
        "exact_div": "rings.laurent_exact_div",
    },
    ("rings", "OmegaElement"): {"__mul__": "rings.omega_mul", "__rmul__": "rings.omega_mul"},
    ("matrix3", "Matrix3"): {
        "__mul__": "matrix3.mul", "__rmul__": "matrix3.mul", "__pow__": "matrix3.pow",
        "inverse": "matrix3.inverse", "det": "matrix3.det",
    },
}

PACKAGE = "jacobsthal3"
MAX_SPANS = 1_000_000  # about 26 MB of arrays; run.py starts no new op past it


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _term_count(x) -> int:
    terms = getattr(x, "terms", None)
    return len(terms) if terms is not None else 1


class Tracer:
    def __init__(self):
        self.groups: list[str] = []
        self._group_ids: dict[str, int] = {}
        self.op_ids = array("i")
        self.parents = array("q")
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.op = 0
        self.operand_terms = 0  # summed over the operands of Laurent products
        self.operands = 0
        self._undo: list = []

    def _group_id(self, group: str) -> int:
        if group not in self._group_ids:
            self._group_ids[group] = len(self.groups)
            self.groups.append(group)
        return self._group_ids[group]

    def wrap(self, fn, group: str):
        gid = self._group_id(group)
        op_ids, parents, names = self.op_ids, self.parents, self.names
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = len(starts)
            op_ids.append(tracer.op)
            parents.append(stack[-1])
            names.append(gid)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count_operands(self, fn):
        def counted(a, b):
            self.operand_terms += _term_count(a) + _term_count(b)
            self.operands += 2
            return fn(a, b)

        return counted

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    self._undo.append((setattr, module, name, original))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            self._undo.append((dict.__setitem__, value, key, original))

    def install(self) -> None:
        modules = {m.__name__.rpartition(".")[2]: m for m in _package_modules()}
        for mod_name, attrs in FUNCTIONS.items():
            for attr, group in attrs.items():
                original = getattr(modules[mod_name], attr, None)
                if original is not None:
                    self._replace_everywhere(original, self.wrap(original, group))
        classic = modules["classic"]
        for attr, value in list(vars(classic).items()):
            if callable(value) and not attr.startswith("_") and getattr(value, "__module__", "") == classic.__name__:
                self._replace_everywhere(value, self.wrap(value, "classic"))
        for (mod_name, cls_name), methods in METHODS.items():
            cls = getattr(modules[mod_name], cls_name)
            for attr, group in methods.items():
                original = cls.__dict__.get(attr)
                if original is None:
                    continue
                wrapper = self.wrap(original, group)
                if group == "rings.laurent_mul":
                    wrapper = self._count_operands(wrapper)
                setattr(cls, attr, wrapper)
                self._undo.append((setattr, cls, attr, original))
        for identity in modules["identities"].IDENTITIES:
            original = identity.check
            object.__setattr__(identity, "check", self.wrap(original, f"identities.{identity.name}"))
            self._undo.append((object.__setattr__, identity, "check", original))

    def uninstall(self) -> None:
        while self._undo:
            setter, target, key, original = self._undo.pop()
            setter(target, key, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        starts, ends, parents = self.starts, self.ends, self.parents
        own = [e - s for s, e in zip(starts, ends)]
        for i, p in enumerate(parents):
            if p >= 0:
                own[p] -= ends[i] - starts[i]
        return own

    def summary(self) -> dict:
        """Calls and self seconds per group, and the check count of identities."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for gid, own in zip(self.names, self.self_times()):
            group = self.groups[gid]
            calls[group] += 1
            self_s[group] += own
        checks = sum(n for g, n in calls.items()
                     if g.startswith("identities.") and g != "identities.engine")
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "identity_checks": checks,
            "laurent_mul_terms_mean": self.operand_terms / self.operands if self.operands else 0.0,
            "spans": len(self.starts),
        }

    def write(self, path) -> None:
        arrays = [("op", self.op_ids), ("parent", self.parents), ("name", self.names),
                  ("start", self.starts), ("end", self.ends)]
        header = json.dumps({
            "groups": self.groups,
            "spans": len(self.starts),
            "fields": [[name, arr.typecode] for name, arr in arrays],
        }).encode()
        with open(path, "wb") as fh:
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            for _, arr in arrays:
                arr.tofile(fh)


def read_spans(path) -> tuple[list[str], dict[str, array]]:
    """Group names and the span arrays of a file written by `Tracer.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.read(int.from_bytes(fh.read(8), "little")))
        fields = {}
        for name, typecode in header["fields"]:
            arr = array(typecode)
            arr.fromfile(fh, header["spans"])
            fields[name] = arr
    return header["groups"], fields
