"""The project linter: repo-specific AST rules.

Generic linters cannot know that this codebase routes all randomness
through :mod:`repro.util.rng` (decomposition-independent streams), that
its comm/service threads must never block without a timeout (the
paper's Section IV deadlock discipline), or that multi-instance
components must label their metric series. These rules encode that
house style:

==================  ========  ====================================================
rule                severity  what it flags
==================  ========  ====================================================
unseeded-rng        error     global-state ``random.*`` / legacy ``np.random.*``
                              calls, and ``default_rng()`` / ``Random()`` with no
                              seed, outside ``util/rng.py``
bare-except         error     ``except:`` with no exception type
overbroad-except    warning   ``except BaseException``, or ``except Exception``
                              whose body only ``pass``es
blocking-call       warning   ``.get()`` / ``.acquire()`` / ``.wait()`` with no
                              timeout in comm, service, memory, resilience,
                              fabric, check, and radiation/spectral code
                              (plus ``perf/tsdb.py``)
mutable-default     error     ``def f(x=[])`` and friends
unlabeled-metric    warning   ``counter()/gauge()/histogram()`` with no label
                              kwargs in multi-instance components (comm, memory,
                              dw)
layer-violation     error     an import that points up :data:`LAYERS`: at module
                              level always, in a function unless it carries
                              ``# repro: allow(layer-violation) <reason>``
unused-import       warning   a module-level import whose name the module never
                              reads (``__init__`` files re-export, so are exempt)
==================  ========  ====================================================

Deliberate violations carry an inline ``# repro: allow(<rule>)``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.check.findings import (
    CheckFinding,
    is_suppressed,
    parse_suppressions,
)

#: rule catalog: name -> (severity, one-line description)
RULES = {
    "unseeded-rng": (
        "error",
        "global-state random.* / legacy np.random.*, or default_rng()/"
        "Random() with no seed, outside util/rng.py",
    ),
    "bare-except": (
        "error",
        "except: with no exception type (catches SystemExit/"
        "KeyboardInterrupt)",
    ),
    "overbroad-except": (
        "warning",
        "except BaseException, or except Exception whose body only "
        "passes",
    ),
    "blocking-call": (
        "warning",
        ".get()/.acquire()/.wait() with no timeout in comm, service, "
        "memory, resilience, fabric, check, radiation/spectral, or "
        "perf/tsdb.py",
    ),
    "mutable-default": (
        "error",
        "mutable default argument shared across calls",
    ),
    "unlabeled-metric": (
        "warning",
        "counter()/gauge()/histogram() with no label kwargs in a "
        "multi-instance component",
    ),
    "layer-violation": (
        "error",
        "import pointing up the layer order (module level: always; in a "
        "function: unless allowed with a reason)",
    ),
    "unused-import": (
        "warning",
        "module-level import whose name the module never reads "
        "(__init__ files exempt)",
    ),
    "syntax-error": (
        "error",
        "source file does not parse",
    ),
}

#: the layer order, bottom to top, over module prefixes relative to
#: ``repro`` — the one written copy. A module-level import may point
#: down or sideways, never up. A module's layer is its longest matching
#: prefix's; a package named as a whole sits at the highest layer of
#: its modules, since its ``__init__`` re-exports them.
LAYERS = (
    ("util",),
    # the instruments every layer publishes into
    ("perf.metrics", "perf.tracer", "perf.tracectx", "perf.flightrec", "perf.tsdb",
     "perf.rankstats", "perf.slo", "perf.detect"),
    ("grid", "machine", "memory", "runtime.mpi"),
    ("comm", "dw", "radiation", "resilience.state"),
    ("runtime",),
    ("core",),
    ("radiation.spectral",),
    ("ups", "arches", "dessim", "report"),
    ("resilience", "service"),
    ("fabric",),
    # the analysis tools (analyze, doctor, profile, harness, baseline,
    # merge), the checkers and the command line
    ("perf", "check", "__main__"),
)
_LAYER = {prefix: i for i, layer in enumerate(LAYERS) for prefix in layer}

#: what the root ``repro`` module defines itself (the rest of its names
#: are re-exports from every layer)
ROOT_NAMES = ("lazy_exports", "__version__")

#: the allow that admits a function-local upward import: it names a reason
LAYER_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\([^)]*layer-violation[^)]*\)\s*\S")

#: module-level functions on ``random`` that mutate the hidden global state
GLOBAL_RANDOM_FNS = {
    "random", "seed", "randint", "randrange", "uniform", "shuffle",
    "choice", "choices", "sample", "gauss", "normalvariate",
    "expovariate", "betavariate", "getrandbits", "triangular",
}

#: legacy ``np.random`` global-state API (the pre-Generator interface)
NP_GLOBAL_RANDOM_FNS = {
    "seed", "rand", "randn", "random", "random_sample", "ranf",
    "randint", "uniform", "normal", "choice", "shuffle", "permutation",
    "standard_normal", "exponential", "poisson", "gamma", "beta",
}

#: path fragments where blocking without a timeout is a finding
#: (resilience drains comm fabrics and restores mid-failure, the
#: fabric babysits shard processes, the checkers themselves drive
#: threads/locks, and spectral solves run inside serve/fabric workers —
#: all get the same no-untimed-blocking discipline as the layers they
#: touch)
BLOCKING_SCOPE = ("comm", "service", "memory", "resilience", "fabric",
                  "check", "spectral")

#: individual files under the same discipline whose parent package is
#: not (tsdb's collector thread runs inside the serve loop; the
#: detector bank and doctor run on that same cadence / control loop)
BLOCKING_SCOPE_FILES = ("perf/tsdb.py", "perf/detect.py", "perf/doctor.py")

#: path fragments where metric series must carry labels
METRIC_LABEL_SCOPE = ("comm", "memory", "dw")

METRIC_FACTORIES = {"counter", "gauge", "histogram"}

#: files exempt from unseeded-rng (the sanctioned RNG home)
RNG_HOME = ("util/rng.py",)


def _attr_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """('np', 'random', 'seed') for ``np.random.seed``; None if dynamic."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def layer_of(module: str) -> Optional[int]:
    """Layer of ``module`` (dotted, relative to ``repro``; "" is the
    root), or None for a module outside the table."""
    under = [i for p, i in _LAYER.items() if p.startswith(module + ".") or not module]
    parts = module.split(".")
    for n in range(len(parts), 0, -1):
        if ".".join(parts[:n]) in _LAYER:
            return max([_LAYER[".".join(parts[:n])]] + under)
    return max(under, default=None)


def module_of(path: str) -> str:
    """``core/dda.py`` or ``src/repro/core/dda.py`` -> ``core.dda``."""
    parts = list(Path(path).with_suffix("").parts)
    if "repro" in parts:
        parts = parts[len(parts) - parts[::-1].index("repro"):]
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call):
        chain = _attr_chain(node.func)
        if chain and chain[-1] in ("list", "dict", "set"):
            return True
    return False


class _RuleVisitor(ast.NodeVisitor):
    def __init__(self, path: str, scope_parts: Set[str],
                 blocking_in_scope: Optional[bool] = None,
                 lines: Sequence[str] = ()) -> None:
        self.path = path
        self.scope = scope_parts
        if blocking_in_scope is None:
            blocking_in_scope = bool(
                scope_parts.intersection(BLOCKING_SCOPE))
        self.blocking_in_scope = blocking_in_scope
        self.findings: List[CheckFinding] = []
        self.lines = lines
        #: function-local upward imports allowed with a reason
        self.allowed = 0
        self.module = module_of(path)
        self.layer = layer_of(self.module)
        self.depth = 0  #: enclosing function definitions

    def _add(self, rule: str, severity: str, message: str, node: ast.AST) -> None:
        self.findings.append(
            CheckFinding(
                rule=rule,
                severity=severity,
                message=message,
                file=self.path,
                line=getattr(node, "lineno", 0),
                check="lint",
            )
        )

    # -- layer-violation ------------------------------------------------
    def _imported(self, node) -> List[str]:
        """The modules an import loads, relative to ``repro``."""
        if isinstance(node, ast.Import):
            return [a.name[6:] for a in node.names if a.name.startswith("repro.")]
        base = node.module or ""
        if node.level:  # relative to this module's package
            package = self.module.split(".")[: None if self.path.endswith("__init__.py") else -1]
            base = ".".join(package[: len(package) - node.level + 1] + [base]).strip(".")
        elif base == "repro" or base.startswith("repro."):
            base = base[6:]
        else:
            return []
        out = []
        for alias in node.names:
            sub = f"{base}.{alias.name}".lstrip(".")
            if sub in _LAYER or any(p.startswith(sub + ".") for p in _LAYER):
                out.append(sub)
            elif base or alias.name not in ROOT_NAMES:
                out.append(base)
        return out

    def _check_layers(self, node) -> None:
        if self.layer is None:
            return
        for target in dict.fromkeys(self._imported(node)):
            up = layer_of(target)
            if up is None or up <= self.layer:
                continue
            if self.depth and LAYER_ALLOW_RE.search(self.lines[node.lineno - 1]):
                self.allowed += 1
                continue
            where = "function-local" if self.depth else "module-level"
            fix = ("mark it '# repro: allow(layer-violation) <reason>'" if self.depth
                   else "move it into the function that needs it")
            self._add(
                "layer-violation", "error",
                f"{where} import of repro.{target} (layer {up}) from "
                f"repro.{self.module or '__init__'} (layer {self.layer}) points up "
                f"the layer order; {fix}",
                node,
            )

    def visit_Import(self, node: ast.Import) -> None:
        self._check_layers(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._check_layers(node)

    # -- unseeded-rng ---------------------------------------------------
    def _check_rng(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        if chain is None:
            return
        if chain[0] == "random" and len(chain) == 2:
            fn = chain[1]
            if fn in GLOBAL_RANDOM_FNS:
                self._add(
                    "unseeded-rng", "error",
                    f"global-state random.{fn}() breaks decomposition-"
                    f"independent replay; use repro.util.rng streams",
                    node,
                )
            elif fn == "Random" and not node.args and not node.keywords:
                self._add(
                    "unseeded-rng", "error",
                    "random.Random() with no seed; pass an explicit seed",
                    node,
                )
        elif chain[0] in ("np", "numpy") and len(chain) == 3 and chain[1] == "random":
            fn = chain[2]
            if fn in NP_GLOBAL_RANDOM_FNS:
                self._add(
                    "unseeded-rng", "error",
                    f"legacy np.random.{fn}() uses hidden global state; "
                    f"use repro.util.rng.spawn_stream",
                    node,
                )
            elif fn == "default_rng" and not node.args and not node.keywords:
                self._add(
                    "unseeded-rng", "error",
                    "np.random.default_rng() with no seed draws OS entropy; "
                    "pass an explicit seed",
                    node,
                )

    # -- blocking-call --------------------------------------------------
    def _check_blocking(self, node: ast.Call) -> None:
        if not self.blocking_in_scope:
            return
        if not isinstance(node.func, ast.Attribute):
            return
        attr = node.func.attr
        kwargs = {kw.arg for kw in node.keywords if kw.arg is not None}
        if attr in ("get", "wait") and not node.args and not kwargs:
            self._add(
                "blocking-call", "warning",
                f".{attr}() with no timeout can block a worker thread "
                f"forever; pass timeout= and handle the miss",
                node,
            )
        elif attr == "acquire":
            if "timeout" in kwargs:
                return
            blocking_false = any(
                kw.arg == "blocking"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
                for kw in node.keywords
            ) or (
                node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value is False
            )
            if not blocking_false:
                self._add(
                    "blocking-call", "warning",
                    ".acquire() with no timeout can deadlock under "
                    "contention; use try-acquire or a timeout",
                    node,
                )

    # -- unlabeled-metric -----------------------------------------------
    def _check_metric(self, node: ast.Call) -> None:
        if not self.scope.intersection(METRIC_LABEL_SCOPE):
            return
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in METRIC_FACTORIES:
            return
        labels = [kw for kw in node.keywords if kw.arg != "buckets"]
        if not labels:
            self._add(
                "unlabeled-metric", "warning",
                f"{node.func.attr}() series without labels collides across "
                f"instances; label it (pool=, rank=, allocator=, ...)",
                node,
            )

    # -- visitors -------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._check_rng(node)
        self._check_blocking(node)
        self._check_metric(node)
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._add(
                "bare-except", "error",
                "bare except catches SystemExit/KeyboardInterrupt; name "
                "the exceptions",
                node,
            )
        elif isinstance(node.type, ast.Name):
            body_is_pass = all(isinstance(s, ast.Pass) for s in node.body)
            if node.type.id == "BaseException":
                self._add(
                    "overbroad-except", "warning",
                    "except BaseException swallows interpreter exits; "
                    "catch Exception or narrower",
                    node,
                )
            elif node.type.id == "Exception" and body_is_pass:
                self._add(
                    "overbroad-except", "warning",
                    "except Exception: pass silently swallows every "
                    "failure; narrow it or handle it",
                    node,
                )
        self.generic_visit(node)

    def _check_defaults(self, node) -> None:
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            if _is_mutable_literal(default):
                self._add(
                    "mutable-default", "error",
                    f"mutable default argument on {node.name}() is shared "
                    f"across calls; default to None",
                    default,
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.depth += 1
        self.generic_visit(node)
        self.depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef


def _unused_imports(tree: ast.Module, path: str) -> List[CheckFinding]:
    """unused-import: each name an import in the module body binds that
    no loaded name of the module reads."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*" and bound not in read:
                found.append(CheckFinding(
                    rule="unused-import", severity="warning",
                    message=f"module-level import of {bound!r} is never read; "
                            f"delete it",
                    file=path, line=alias.lineno, check="lint",
                ))
    return found


def lint_source(
    source: str, path: str = "<string>"
) -> Tuple[List[CheckFinding], int]:
    """Lint one source text. Returns (findings, suppressed_count)."""
    norm = path.replace("\\", "/")
    if any(norm.endswith(home) for home in RNG_HOME):
        return [], 0
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            CheckFinding(
                rule="syntax-error", severity="error",
                message=f"cannot parse: {exc.msg}",
                file=path, line=exc.lineno or 0, check="lint",
            )
        ], 0
    scope_parts = set(Path(norm).parts)
    blocking_in_scope = bool(
        scope_parts.intersection(BLOCKING_SCOPE)
    ) or any(norm.endswith(f) for f in BLOCKING_SCOPE_FILES)
    visitor = _RuleVisitor(norm, scope_parts, blocking_in_scope,
                           source.splitlines())
    visitor.visit(tree)
    if not norm.endswith("__init__.py"):
        visitor.findings.extend(_unused_imports(tree, norm))
    suppressions = parse_suppressions(source)
    kept: List[CheckFinding] = []
    suppressed = visitor.allowed
    for f in visitor.findings:
        # a layer-violation is allowed only by the visitor, with a reason
        if f.rule != "layer-violation" and is_suppressed(f, suppressions):
            suppressed += 1
        else:
            kept.append(f)
    return kept, suppressed


#: the seeded-defect fixture, linted as a ``core/`` file: the module-level
#: upward import and the never-read ``json`` must be caught, the allowed
#: function-local upward import not
SEEDED_LINT_FIXTURE = (
    "from repro.service import RadiationService\n"
    "import json\n"
    "\n"
    "\n"
    "def serve():\n"
    "    from repro.service import ServiceClient  # repro: allow(layer-violation) seeded\n"
    "    return RadiationService, ServiceClient\n"
)


def run_lint_fixture() -> Tuple[List[CheckFinding], int]:
    """Lint :data:`SEEDED_LINT_FIXTURE`: two findings, one suppressed."""
    return lint_source(SEEDED_LINT_FIXTURE, "<seeded>/repro/core/layers.py")


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    out: List[Path] = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            out.extend(
                f for f in sorted(path.rglob("*.py"))
                if "__pycache__" not in f.parts
            )
        elif path.suffix == ".py":
            out.append(path)
    return out


def lint_paths(
    paths: Iterable[str], root: Optional[Path] = None
) -> Tuple[List[CheckFinding], int, int]:
    """Lint every ``.py`` under ``paths``.

    Returns (findings, suppressed_count, files_scanned); file names in
    findings are relative to ``root`` when given.
    """
    findings: List[CheckFinding] = []
    suppressed = 0
    files = iter_python_files(paths)
    for f in files:
        rel = f
        if root is not None:
            try:
                rel = f.relative_to(root)
            except ValueError:
                rel = f
        file_findings, file_suppressed = lint_source(
            f.read_text(encoding="utf-8"), str(rel)
        )
        findings.extend(file_findings)
        suppressed += file_suppressed
    return findings, suppressed, len(files)
