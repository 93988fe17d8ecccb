"""The three benchmark workloads: seeded inputs, one module per input, checks.

Each workload turns a seed into an endless stream of inputs (the same seed
always gives the same stream), generates one module per input through the
program's public API, and checks every output against references that do
not come from the code path under test.  The program itself is imported in
:meth:`setup`, so a probe process can time the import.

Every call into a layer's public function runs under a span of the
benchmark's own (``bench.<layer>.<call>``).  With the process tracer
disabled (end-to-end runs) such a span is a shared no-op; in a traced run
the spans, and the program's own spans and counters, feed a ``StatsSink``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCES = HERE / "references.json"
TECH = "generic_bicmos_1u"


def use_checkout_src() -> bool:
    """Put the checkout's ``src`` first on ``sys.path``.

    Returns False when the checkout holds no program to measure, so the
    benchmark fails instead of measuring some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def load_references() -> Dict[str, Any]:
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def inputs_digest(items: List[Any]) -> str:
    """sha256 of a list of generated inputs (JSON, keys sorted)."""
    text = json.dumps(items, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Output:
    """What one generated module produced, as far as the checks need it."""

    violations: int = 0
    #: Violations of the known MOS endcap defect (see README.md).
    known_defects: int = 0
    area_um2: float = 0.0
    bytes: int = 0
    #: Compaction steps the order search performed (order_search only).
    compact_calls: int = 0
    #: Data kept for :meth:`check`, dropped after it.
    detail: Dict[str, Any] = field(default_factory=dict)


def _geometry(obj) -> List[Tuple]:
    return sorted(
        (r.x1, r.y1, r.x2, r.y2, r.layer, r.net) for r in obj.nonempty_rects
    )


class Amplifier:
    """The Sec. 3 BiCMOS amplifier, generated again and again.

    One fixed design: the seed names the run but cannot change the input.
    One module is ``build_amplifier`` → ``run_drc`` + ``capacitance_report``
    → ``dumps_gds`` + ``render_svg``.
    """

    name = "amplifier"
    #: Modules per traced pass.
    pass_size = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, phases: Dict[str, float]) -> None:
        start = time.perf_counter()
        from repro.amplifier import build_amplifier
        from repro.db import capacitance_report
        from repro.drc import run_drc
        from repro.io import dumps_gds, render_svg
        from repro.obs import get_tracer
        from repro.tech import get_technology

        phases["import.repro_s"] = time.perf_counter() - start
        start = time.perf_counter()
        self.tech = get_technology(TECH)
        phases["tech.load_s"] = time.perf_counter() - start
        self.build_amplifier = build_amplifier
        self.capacitance_report = capacitance_report
        self.run_drc = run_drc
        self.dumps_gds = dumps_gds
        self.render_svg = render_svg
        self.get_tracer = get_tracer
        self.reference = load_references()["amplifier"]

    def inputs(self) -> Iterator[Dict[str, Any]]:
        while True:
            yield {"design": "BiCMOSAmplifier", "tech": TECH}

    def run(self, item: Dict[str, Any]) -> Output:
        tracer = self.get_tracer()
        with tracer.span("bench.amplifier.build"):
            amp = self.build_amplifier(self.tech)
        with tracer.span("bench.drc.run"):
            violations = self.run_drc(amp, include_latchup=True)
        with tracer.span("bench.db.nets"):
            caps = self.capacitance_report(amp.rects, self.tech)
        with tracer.span("bench.io.gds"):
            gds = self.dumps_gds(amp)
        with tracer.span("bench.io.svg"):
            svg = self.render_svg(amp, scale=0.004)
        dbu = self.tech.dbu_per_micron
        return Output(
            violations=len(violations),
            area_um2=amp.area() / dbu ** 2,
            bytes=len(gds) + len(svg.encode("utf-8")),
            detail={"gds": gds, "svg": svg, "caps": caps,
                    "rects": len(amp.nonempty_rects)},
        )

    def check(self, item: Dict[str, Any], out: Output) -> List[str]:
        ref = self.reference
        problems = []
        if out.violations != 0:
            problems.append(f"amplifier has {out.violations} DRC violations")
        if out.area_um2 != ref["area_um2"]:
            problems.append(f"area {out.area_um2} != {ref['area_um2']} um2")
        if out.detail["rects"] != ref["rects"]:
            problems.append(f"{out.detail['rects']} rects != {ref['rects']}")
        if hashlib.sha256(out.detail["gds"]).hexdigest() != ref["gds_sha256"]:
            problems.append("GDS digest differs from the reference")
        caps = json.dumps(sorted(out.detail["caps"].items()))
        if hashlib.sha256(caps.encode("utf-8")).hexdigest() != ref["nets_sha256"]:
            problems.append("net capacitance report differs from the reference")
        if out.detail["svg"].count("<rect") < ref["rects"]:
            problems.append("SVG holds fewer rects than the layout")
        return problems


#: The seven ``DSL_LIBRARY`` entities, in sorted order (checked in setup).
PLDL_ENTITIES = (
    "ContactRow", "DiffPair", "GuardedTransistor", "Interdigitated",
    "Mirror", "Serpentine", "Transistor",
)
#: Entities that hold a MOS gate, and so can show the endcap defect.
MOS_ENTITIES = frozenset(PLDL_ENTITIES) - {"ContactRow", "Serpentine"}
WIDTHS = tuple(2.0 + 0.5 * k for k in range(21))  # 2.0 .. 12.0 um
LENGTHS = (1.0, 1.5, 2.0, 2.5, 3.0)
#: Below this channel width the gate endcap is short (known defect).
DEFECT_W = 3.0


def pldl_draw(rng: random.Random, name: str) -> Dict[str, Any]:
    """One parameter draw for entity *name* (microns)."""
    if name == "ContactRow":
        return {"layer": rng.choice(("poly", "pdiff", "ndiff")),
                "W": rng.choice(WIDTHS), "L": float(rng.randrange(4, 13, 2))}
    if name == "Serpentine":
        return {"W": rng.choice((1.0, 1.5, 2.0, 3.0)),
                "LSEG": float(rng.randint(8, 20)), "NSEG": float(rng.randint(2, 6))}
    params = {"W": rng.choice(WIDTHS), "L": rng.choice(LENGTHS)}
    if name == "Interdigitated":
        params["N"] = float(rng.randint(2, 6))
    return params


class PldlSweep:
    """Seeded parameter draws over the PLDL module library.

    Entities come round-robin, so every seed gets the same mix; W, L, N,
    NSEG and layer are drawn.  Each draw is generated by
    ``Interpreter.call`` and by the ``translate()``d Python, the two
    geometries are compared, then the interpreted module gets ``run_drc``
    and ``dumps_cif``.
    """

    name = "pldl_sweep"
    pass_size = 210

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, phases: Dict[str, float]) -> None:
        start = time.perf_counter()
        from repro.drc import run_drc
        from repro.io import dumps_cif
        from repro.lang import Interpreter, Runtime, translate
        from repro.library import DSL_LIBRARY
        from repro.obs import get_tracer
        from repro.tech import get_technology

        phases["import.repro_s"] = time.perf_counter() - start
        start = time.perf_counter()
        self.tech = get_technology(TECH)
        phases["tech.load_s"] = time.perf_counter() - start
        if tuple(sorted(DSL_LIBRARY)) != PLDL_ENTITIES:
            raise RuntimeError(f"DSL_LIBRARY holds {sorted(DSL_LIBRARY)}")
        start = time.perf_counter()
        self.interpreters = {}
        for name in PLDL_ENTITIES:
            interp = Interpreter(self.tech)
            interp.load(DSL_LIBRARY[name])
            self.interpreters[name] = interp
        phases["lang.load_s"] = time.perf_counter() - start
        start = time.perf_counter()
        self.translated = {}
        for name in PLDL_ENTITIES:
            namespace: Dict[str, Any] = {}
            code = compile(translate(DSL_LIBRARY[name]), f"<{name}>", "exec")
            exec(code, namespace)
            self.translated[name] = namespace[name]
        phases["lang.translate_s"] = time.perf_counter() - start
        self.runtime = Runtime(self.tech)
        self.run_drc = run_drc
        self.dumps_cif = dumps_cif
        self.get_tracer = get_tracer

    def inputs(self) -> Iterator[Tuple[str, Dict[str, Any]]]:
        # Every stream opens with the paper's Fig. 7 differential pair, so the
        # cold first module (first_module_s) does the same work for every seed.
        yield "DiffPair", {"W": 8.0, "L": 1.0}
        rng = random.Random(self.seed)
        index = 0
        while True:
            name = PLDL_ENTITIES[index % len(PLDL_ENTITIES)]
            yield name, pldl_draw(rng, name)
            index += 1

    def run(self, item: Tuple[str, Dict[str, Any]]) -> Output:
        name, params = item
        tracer = self.get_tracer()
        with tracer.span("bench.lang.interp"):
            module = self.interpreters[name].call(name, **params)
        with tracer.span("bench.lang.translated"):
            twin = self.translated[name](self.runtime, **params)
        with tracer.span("bench.drc.run"):
            violations = self.run_drc(
                module, include_latchup=name == "GuardedTransistor"
            )
        with tracer.span("bench.io.cif"):
            cif = self.dumps_cif(module)
        unexpected = [
            str(v) for v in violations if not self._is_known_defect(name, params, v)
        ]
        dbu = self.tech.dbu_per_micron
        return Output(
            violations=len(violations),
            known_defects=len(violations) - len(unexpected),
            area_um2=module.area() / dbu ** 2,
            bytes=len(cif.encode("utf-8")),
            detail={"module": module, "twin": twin, "cif": cif,
                    "unexpected": unexpected},
        )

    @staticmethod
    def _is_known_defect(name: str, params: Dict[str, Any], violation) -> bool:
        return (
            name in MOS_ENTITIES
            and params["W"] < DEFECT_W
            and violation.kind == "extension"
            and "gate endcap" in violation.message
        )

    def check(self, item: Tuple[str, Dict[str, Any]], out: Output) -> List[str]:
        name, params = item
        module, twin = out.detail["module"], out.detail["twin"]
        problems = []
        if _geometry(module) != _geometry(twin):
            problems.append(f"{name}{params}: interpreter and translated differ")
        for violation in out.detail["unexpected"]:
            problems.append(f"{name}{params}: unexpected violation {violation}")
        boxes = sum(line.startswith("B ") for line in out.detail["cif"].splitlines())
        if boxes != len(module.nonempty_rects):
            problems.append(f"{name}{params}: CIF has {boxes} boxes")
        return problems


#: Order-search slots: (library builder, fixed arguments, drawn argument,
#: its values, step direction).  A set takes one value per slot, so every
#: set has the same make-up and only the sizes change.
ORDER_SLOTS = (
    ("contact_row", {"layer": "pdiff", "net": "a", "name": "a"}, "w",
     (4.0, 6.0, 8.0), "WEST"),
    ("contact_row", {"layer": "pdiff", "net": "b", "name": "b"}, "w",
     (6.0, 9.0, 12.0), "SOUTH"),
    ("contact_row", {"layer": "poly", "w": 2.0, "net": "c", "name": "c"}, "length",
     (8.0, 12.0, 16.0), "WEST"),
    ("mos_transistor", {"length": 1.0, "gate_net": "mg", "source_net": "ms",
                        "drain_net": "md", "name": "m"}, "w", (2.0, 4.0, 6.0), "SOUTH"),
    ("diode_transistor", {"length": 1.0, "anode_net": "da", "source_net": "ds",
                          "name": "d"}, "w", (3.0, 5.0, 8.0), "WEST"),
)


def order_key(picks: Tuple[int, ...]) -> str:
    return "".join(str(p) for p in picks)


def all_order_sets() -> List[Tuple[int, ...]]:
    """Every set the order_search stream can draw (3**5 of them)."""
    return list(itertools.product(*(range(len(s[3])) for s in ORDER_SLOTS)))


def order_steps(picks: Tuple[int, ...], tech) -> list:
    """Build the five library modules of one set as compaction steps."""
    from repro import library
    from repro.geometry import Direction
    from repro.opt import Step

    steps = []
    for (builder, fixed, drawn, values, direction), pick in zip(ORDER_SLOTS, picks):
        obj = getattr(library, builder)(tech, **fixed, **{drawn: values[pick]})
        steps.append(Step(obj, getattr(Direction, direction)))
    return steps


class OrderSearch:
    """Seeded sets of five library modules through ``Environment.optimize_order``."""

    name = "order_search"
    pass_size = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, phases: Dict[str, float]) -> None:
        start = time.perf_counter()
        from repro import Environment
        from repro.obs import get_tracer
        from repro.tech import get_technology

        phases["import.repro_s"] = time.perf_counter() - start
        start = time.perf_counter()
        self.tech = get_technology(TECH)
        phases["tech.load_s"] = time.perf_counter() - start
        self.env = Environment(tech=self.tech)
        self.get_tracer = get_tracer
        self.reference = load_references()["order_search"]

    def inputs(self) -> Iterator[Tuple[int, ...]]:
        # Every stream opens with the middle sizes, so the cold first module
        # (first_module_s) does the same work for every seed.
        yield tuple(len(slot[3]) // 2 for slot in ORDER_SLOTS)
        rng = random.Random(self.seed)
        while True:
            yield tuple(rng.randrange(len(slot[3])) for slot in ORDER_SLOTS)

    def run(self, item: Tuple[int, ...]) -> Output:
        tracer = self.get_tracer()
        with tracer.span("bench.library.build"):
            steps = order_steps(item, self.tech)
        calls = self.env.compactor.calls
        with tracer.span("bench.opt.search"):
            result = self.env.optimize_order("module", steps)
        return Output(
            area_um2=result.best_score,
            compact_calls=self.env.compactor.calls - calls,
            detail={"order": list(result.best_order), "score": result.best_score},
        )

    def check(self, item: Tuple[int, ...], out: Output) -> List[str]:
        expected = self.reference[order_key(item)]
        got = {"order": out.detail["order"], "score": out.detail["score"]}
        if got != expected:
            return [f"set {order_key(item)}: best {got} != reference {expected}"]
        return []


WORKLOADS = {w.name: w for w in (Amplifier, PldlSweep, OrderSearch)}
