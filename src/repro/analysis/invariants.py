"""Declarative invariant rules and structured diagnostics.

AutoHet's correctness rests on structural invariants the paper states but
a simulator only discovers at runtime: Eq. 4 utilization must stay in
(0, 1], RXB heights must be multiples of 9 to match ``Cin * k^2`` row
footprints (§3.3), and Algorithm 1's tile-shared remapping must never
double-book a crossbar or overfill a tile (§3.4).  This module is the
*vocabulary* for enforcing them statically:

* :class:`Rule` — one named invariant with a stable id, a severity, and
  the paper anchor (section / equation / algorithm) it reproduces.  Every
  rule lives in the :data:`RULES` registry; `docs/static_analysis.md` is
  the human-readable catalogue.
* :class:`Diagnostic` — one concrete violation (or advisory finding):
  rule id, location, message, fix hint.
* :class:`Report` — an ordered collection of diagnostics with severity
  roll-ups, used by the ``repro check`` CLI.
* :class:`InvariantViolation` — the Diagnostic-backed exception runtime
  validation raises.  It subclasses :class:`ValueError` so existing
  call sites that guard construction keep working.

This module is intentionally dependency-free (no imports from the rest
of :mod:`repro`), so construction-time validation in ``arch/config.py``
and the static checkers in :mod:`repro.analysis.checkers` share the same
rule implementations and cannot drift.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping


class Severity(enum.Enum):
    """How bad a finding is.  Only ERROR diagnostics fail ``repro check``."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]


@dataclass(frozen=True)
class Diagnostic:
    """One concrete finding produced by a rule check."""

    rule_id: str
    severity: Severity
    location: str  #: what was checked, e.g. ``"shape 35x32"`` or ``"tile 3"``
    message: str   #: what is wrong
    hint: str = "" #: how to fix it
    #: optional machine-readable key/value payload (e.g. the units
    #: analyzer's ``inferred`` / ``declared`` pair); rendered only by the
    #: CLI's ``--format json`` emitter, never by :meth:`format`
    data: tuple[tuple[str, str], ...] = ()

    def format(self) -> str:
        head = f"{self.severity.value.upper():>7} {self.rule_id} [{self.location}] {self.message}"
        return f"{head}  (hint: {self.hint})" if self.hint else head


@dataclass(frozen=True)
class Rule:
    """One registered invariant."""

    rule_id: str
    title: str
    severity: Severity
    anchor: str       #: paper anchor, e.g. ``"Eq. 4"`` or ``"Algorithm 1"``
    description: str

    def diag(
        self,
        location: str,
        message: str,
        hint: str = "",
        data: tuple[tuple[str, str], ...] = (),
    ) -> Diagnostic:
        """Instantiate a finding of this rule."""
        return Diagnostic(
            rule_id=self.rule_id,
            severity=self.severity,
            location=location,
            message=message,
            hint=hint,
            data=data,
        )


#: Registry of every known rule, keyed by rule id.
RULES: dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    if rule.rule_id in RULES:
        raise ValueError(f"duplicate rule id {rule.rule_id}")
    RULES[rule.rule_id] = rule
    return rule


def rule(rule_id: str) -> Rule:
    """Look up a registered rule by id."""
    return RULES[rule_id]


def _r(rule_id: str, title: str, severity: Severity, anchor: str, description: str) -> Rule:
    return register(Rule(rule_id, title, severity, anchor, description))


# ----------------------------------------------------------------------
# Rule catalogue (docs/static_analysis.md mirrors this table)
# ----------------------------------------------------------------------
CFG001 = _r(
    "CFG001", "positive config counts", Severity.ERROR, "§4.1",
    "Every precision / hierarchy count of a HardwareConfig must be positive.",
)
CFG002 = _r(
    "CFG002", "weight bits divisible by cell bits", Severity.ERROR, "§4.1",
    "weight_bits must be a positive multiple of cell_bits so a whole "
    "bit-slice crossbar group represents one weight.",
)
CFG003 = _r(
    "CFG003", "input bits divisible by DAC bits", Severity.ERROR, "§4.1",
    "input_bits must be a positive multiple of dac_bits so bit-serial "
    "input cycles tile the activation exactly.",
)
CFG004 = _r(
    "CFG004", "ADC resolution covers crossbar rows", Severity.ERROR, "§4.1",
    "The ADC must resolve the largest bitline partial sum of the tallest "
    "candidate crossbar (the paper picks 10 bits 'to support all "
    "heterogeneous sizes').",
)
SHP001 = _r(
    "SHP001", "positive integer crossbar dimensions", Severity.ERROR, "Fig. 7",
    "Crossbar rows and columns must both be positive integers (Python or "
    "NumPy; not bool, not float).",
)
SHP002 = _r(
    "SHP002", "RXB height multiple of 9", Severity.ERROR, "§3.3",
    "Rectangle candidates must have heights that are multiples of 9, "
    "matching the Cin*k^2 row footprint of 3x3 kernels.",
)
SHP003 = _r(
    "SHP003", "SXB dimension power of two", Severity.ERROR, "§3.3",
    "Square candidates must be power-of-two sized, like the homogeneous "
    "baselines they generalise.",
)
MAP001 = _r(
    "MAP001", "utilization within (0, 1]", Severity.ERROR, "Eq. 4",
    "Intra-array utilization must stay in (0, 1]; anything else means the "
    "mapping arithmetic is corrupt.",
)
MAP002 = _r(
    "MAP002", "kernel-split flag consistency", Severity.ERROR, "§3.3",
    "The kernel-split fallback must engage exactly when a single kernel "
    "slice is taller than the crossbar (k^2 > rows).",
)
MAP003 = _r(
    "MAP003", "row/col group arithmetic", Severity.ERROR, "Eq. 4 / Fig. 7",
    "row_groups and col_groups must match Eq. 4's formulas and provide "
    "enough cells for the unfolded weight matrix.",
)
NET001 = _r(
    "NET001", "layer index contiguity", Severity.ERROR, "Table 1",
    "Weight layers must carry indices 0..n-1 in execution order; the RL "
    "state vector's 'k' feature depends on it.",
)
NET002 = _r(
    "NET002", "dangling layer input width", Severity.ERROR, "§3.2",
    "Every layer's input width must be producible by the dataset or an "
    "earlier layer; otherwise the layer is dangling.",
)
NET003 = _r(
    "NET003", "kernel fits padded input", Severity.ERROR, "Fig. 7",
    "A convolution kernel must fit inside its padded input feature map.",
)
ALC001 = _r(
    "ALC001", "tile occupancy within capacity", Severity.ERROR, "Algorithm 1",
    "A tile can never hold more crossbars than it has slots "
    "(emptyXBNum must stay non-negative).",
)
ALC002 = _r(
    "ALC002", "crossbar double-booking", Severity.ERROR, "§3.4",
    "A layer must not be placed on more crossbar slots than its mapping "
    "occupies — extra placements double-book hardware.",
)
ALC003 = _r(
    "ALC003", "incomplete placement", Severity.ERROR, "§3.4",
    "Every crossbar of every layer's mapping must be placed on some tile.",
)
ALC004 = _r(
    "ALC004", "tile/occupant geometry mismatch", Severity.ERROR, "§3.1",
    "All crossbars inside one tile share a single geometry; a tile may "
    "only host layers mapped to its own shape.",
)
ALC005 = _r(
    "ALC005", "non-positive occupant count", Severity.ERROR, "§3.4",
    "Occupancy bookkeeping must never record zero or negative slot counts.",
)
ALC006 = _r(
    "ALC006", "released-tile accounting", Severity.ERROR, "Algorithm 1",
    "Tiles absorbed by the tile-shared remapping must be released: they "
    "may not survive in the plan, and the absorber must record them.",
)
ALC007 = _r(
    "ALC007", "uniform tile capacity", Severity.ERROR, "§4.1",
    "Every tile's slot count must equal the plan's tile capacity "
    "(pes_per_tile).",
)
LNT001 = _r(
    "LNT001", "no print outside cli/bench", Severity.ERROR, "repo rule",
    "Library code must not print; user-facing output belongs to the CLI "
    "and the bench reporting layer.",
)
LNT002 = _r(
    "LNT002", "no mutable default arguments", Severity.ERROR, "repo rule",
    "Mutable default arguments alias state across calls.",
)
LNT003 = _r(
    "LNT003", "frozen-dataclass discipline in arch/", Severity.ERROR, "repo rule",
    "Dataclasses under arch/ must be frozen unless explicitly marked "
    "'# stateful:' with a reason on the decorator line.",
)
LNT004 = _r(
    "LNT004", "no float equality in energy/latency math", Severity.ERROR, "repo rule",
    "Cost-model code must not compare floats with == / != against float "
    "literals; use tolerances.",
)
LNT005 = _r(
    "LNT005", "no bare assert in allocation invariants", Severity.ERROR, "repo rule",
    "Allocation invariants must raise Diagnostic-backed InvariantViolation "
    "(asserts vanish under python -O and carry no rule id).",
)
LNT006 = _r(
    "LNT006", "no lru_cache on instance methods", Severity.ERROR, "repo rule",
    "functools.lru_cache / functools.cache on an instance method keeps "
    "every self alive in the memo (per-instance leak) and folds object "
    "identity into the key; memoise a module-level function instead.",
)
LNT007 = _r(
    "LNT007", "log through the repro.obs bridge", Severity.ERROR, "repo rule",
    "Library code must not call logging.getLogger / logging.basicConfig "
    "directly; every subsystem logs through repro.obs.log (get_logger / "
    "configure_cli_logging) so the namespace stays uniform and handlers, "
    "levels, and trace sinks are configured in exactly one place.",
)
CAC001 = _r(
    "CAC001", "attribute read but not fingerprinted", Severity.ERROR, "§4.5",
    "The memoized evaluation reads an attribute that the cache-key "
    "fingerprint does not cover — two inputs differing only in that field "
    "collide and one silently receives the other's metrics.",
)
CAC002 = _r(
    "CAC002", "fingerprinted but never read", Severity.WARNING, "§4.5",
    "A field folded into the cache-key fingerprint is never read by the "
    "memoized evaluation: a dead key component that splits entries (and "
    "lowers the hit rate) without affecting results.",
)
CAC003 = _r(
    "CAC003", "nondeterministic or I/O sink in memoized call graph", Severity.ERROR,
    "§4.5",
    "The memoized evaluation reaches random / time / environment / I/O "
    "state that no cache key can cover, so cached results can go stale.",
)
PUR001 = _r(
    "PUR001", "input mutation in memoized call graph", Severity.ERROR, "§4.5",
    "The memoized evaluation mutates one of its key inputs (config, "
    "network, layer, shape); memoized callables must be pure in their "
    "arguments.",
)
PUR002 = _r(
    "PUR002", "module-state mutation in memoized call graph", Severity.ERROR, "§4.5",
    "The memoized evaluation writes module-level state, so results depend "
    "on call history that the cache key cannot express.",
)
CON001 = _r(
    "CON001", "thread or process started inside the library", Severity.ERROR,
    "threading contract",
    "A module under `repro` outside `repro.analysis` imports or references "
    "something that starts a thread or a process (`threading.Thread`, a "
    "`concurrent.futures` executor, `multiprocessing`, `os.fork`).  The "
    "supported contract is one `Simulator` per thread, and the library "
    "itself never fans out.",
)
LNT008 = _r(
    "LNT008", "no literal dtype casts in kernel hot loops", Severity.ERROR,
    "repo rule",
    "Inside a loop in sim/kernels.py, bare float()/np.float32()/"
    "np.float64()/np.int32()/np.int64() casts silently coerce per-element "
    "values and mask the dtype drift NUM001 exists to catch; hoist the "
    "cast out of the loop (or build the array with an explicit dtype= "
    "argument) or allowlist the function in KERNEL_CAST_ALLOWLIST with a "
    "reason.",
)
NUM001 = _r(
    "NUM001", "implicit dtype promotion or narrowing", Severity.ERROR,
    "parity contract",
    "An arithmetic expression mixes arrays of different explicit dtypes "
    "(int32 with int64, float32 with float64, or an int array folded "
    "into float32) — NumPy promotes or narrows silently, and the result "
    "no longer matches the scalar reference bit-for-bit.",
)
NUM002 = _r(
    "NUM002", "order-sensitive float reduction", Severity.ERROR,
    "parity contract",
    "np.sum / np.dot / np.matmul / np.einsum on float operands use "
    "pairwise or blocked summation whose rounding depends on length and "
    "layout; the scalar reference folds strictly left-to-right.  Use the "
    "cumsum idiom (repro.sim.kernels.left_fold) for bit-identical "
    "reductions, or mark the site `# numeric-ok: NUM002 (<reason>)` if "
    "exactness is not required there.",
)
NUM003 = _r(
    "NUM003", "unguarded division, log, or sqrt", Severity.ERROR,
    "parity contract",
    "A division, np.log, or np.sqrt consumes a value that dataflow says "
    "can be zero or negative (np.zeros, a literal zero element, a "
    "subtraction) with no guard in sight — the kernel mints inf/nan that "
    "the scalar reference would have raised on.",
)
NUM004 = _r(
    "NUM004", "float equality comparison", Severity.ERROR,
    "parity contract",
    "== / != against a float value inside the numeric kernels: rounding "
    "differences between the scalar and vectorized paths make exact "
    "float equality a latent divergence.  Compare against integers, use "
    "tolerances, or mark a deliberate exact-sentinel check "
    "`# numeric-ok: NUM004 (<reason>)`.",
)
NUM005 = _r(
    "NUM005", "nan/inf-propagating sink", Severity.ERROR,
    "parity contract",
    "A value that can carry nan or inf (an explicit np.nan/np.inf fill, "
    "or the result of an unguarded division) flows into min/max/argmin/"
    "argmax/sort or an ordering comparison without an np.isfinite guard "
    "— nan poisons the comparison and the winner is arbitrary (the "
    "shape of the PR 7 quantize-subnormal bug).",
)
PAR001 = _r(
    "PAR001", "scalar read not vectorized", Severity.ERROR,
    "parity contract",
    "The scalar cost path (Simulator.evaluate through energy/latency/"
    "area) reads an attribute that KERNEL_COVERAGE does not map "
    "to a kernel column — or maps to a column that no longer exists — "
    "so the vectorized path cannot see that input and the two "
    "implementations silently desynchronize.",
)
UNI001 = _r(
    "UNI001", "mixed-unit add/sub/compare", Severity.ERROR,
    "units contract",
    "An addition, subtraction, comparison, or min/max mixes operands of "
    "different physical units (e.g. energy_nj + latency_ns) — the result "
    "is a number with no meaning, and nothing downstream can detect it.",
)
UNI002 = _r(
    "UNI002", "unit-bearing field not covered by UNIT_TABLE", Severity.ERROR,
    "units contract",
    "A numeric config/result field carries no unit suffix and no "
    "UNIT_TABLE entry — or a UNIT_TABLE entry names a field that no "
    "longer exists — so the dimensional interpreter (and the reader) "
    "cannot know what the number measures.",
)
UNI003 = _r(
    "UNI003", "bare literal acting as a unit conversion", Severity.ERROR,
    "units contract",
    "A bare power-of-ten literal multiplies or divides a unit-bearing "
    "value (the `* 1e-9` idiom) — an undeclared unit conversion.  Name "
    "the factor in repro.sim.units_constants and declare its unit in "
    "CONVERSION_UNITS so the conversion is checkable.",
)
UNI004 = _r(
    "UNI004", "inferred unit diverges from declared unit", Severity.ERROR,
    "units contract",
    "A value flowing into a declared slot — a result/config field, a "
    "suffix-named variable or function return — has an inferred unit "
    "different from the declared one (e.g. a nanojoule expression "
    "returned by a *_ns function).",
)
UNI005 = _r(
    "UNI005", "wrong unit emitted to a tracer stream", Severity.ERROR,
    "units contract",
    "A value is emitted to a repro.obs counter stream whose schema "
    "(UNIT_TABLE['obs.streams']) declares a different unit — dashboards "
    "and SLO checks downstream would silently read the wrong dimension.",
)


class InvariantViolation(ValueError):
    """A structural invariant was violated; carries the diagnostics.

    Subclasses :class:`ValueError` so pre-existing ``pytest.raises(ValueError)``
    guards and defensive ``except ValueError`` blocks keep working.
    """

    def __init__(self, diagnostics: Iterable[Diagnostic], context: str = "") -> None:
        diags = tuple(diagnostics)
        if not diags:
            raise ValueError("InvariantViolation needs at least one diagnostic")
        self.diagnostics: tuple[Diagnostic, ...] = diags
        lines = [d.format() for d in diags]
        prefix = f"{context}: " if context else ""
        super().__init__(prefix + "; ".join(lines))

    @property
    def rule_ids(self) -> tuple[str, ...]:
        return tuple(d.rule_id for d in self.diagnostics)


@dataclass
class Report:
    """An ordered collection of diagnostics from one or more passes."""

    diagnostics: list[Diagnostic] = field(default_factory=lambda: [])

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when no ERROR diagnostics were recorded."""
        return not self.errors

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def rule_ids(self) -> tuple[str, ...]:
        return tuple(d.rule_id for d in self.diagnostics)

    def counts_by_rule(self) -> dict[str, int]:
        """Finding count per rule id (any severity)."""
        counts: dict[str, int] = {}
        for d in self.diagnostics:
            counts[d.rule_id] = counts.get(d.rule_id, 0) + 1
        return counts

    def format(self) -> str:
        if not self.diagnostics:
            return "no findings"
        ordered = sorted(
            self.diagnostics, key=lambda d: (-d.severity.rank, d.rule_id, d.location)
        )
        lines = [d.format() for d in ordered]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.diagnostics)} finding(s) total"
        )
        return "\n".join(lines)

    def raise_if_errors(self, context: str = "") -> None:
        if self.errors:
            raise InvariantViolation(self.errors, context)


def ratchet_violations(
    report: Report, baseline: Mapping[str, int]
) -> list[str]:
    """Findings that exceed a grandfathered per-rule baseline.

    The *ratchet* makes non-ERROR findings fail a gate only when their
    count grows: a baseline file maps rule id -> allowed count (unlisted
    rules default to 0; keys starting with ``_`` are comments).  Shrinking
    counts pass — tighten the baseline in the same change that fixes them.
    """
    allowed = {
        key: int(value)
        for key, value in baseline.items()
        if not key.startswith("_")
    }
    lines = []
    for rule_id, count in sorted(report.counts_by_rule().items()):
        cap = allowed.get(rule_id, 0)
        if count > cap:
            lines.append(
                f"ratchet: {rule_id} has {count} finding(s), "
                f"baseline allows {cap}"
            )
    return lines


# ----------------------------------------------------------------------
# Shared scalar rule implementations.
#
# These are the single source of truth for the checks that exist both at
# construction time (HardwareConfig / CrossbarShape __post_init__) and in
# the static checkers — sharing the implementation keeps runtime and
# static validation from drifting.
# ----------------------------------------------------------------------
def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def required_adc_bits(rows: int, cell_bits: int = 1) -> int:
    """ADC bits needed to resolve the worst-case bitline sum of ``rows``
    1-bit-DAC inputs against ``cell_bits``-bit cells (§4.1's sizing rule:
    10 bits covers 576 rows of 1-bit cells)."""
    max_sum = rows * (2**cell_bits - 1)
    return max(1, math.ceil(math.log2(max_sum + 1)))


def positive_count_diagnostics(
    counts: Mapping[str, int], location: str
) -> list[Diagnostic]:
    """CFG001: every named count must be a positive integer."""
    return [
        CFG001.diag(
            location,
            f"{name} must be positive, got {value}",
            hint=f"set {name} >= 1",
        )
        for name, value in counts.items()
        if value <= 0
    ]


def bit_divisibility_diagnostics(
    weight_bits: int, cell_bits: int, input_bits: int, dac_bits: int, location: str
) -> list[Diagnostic]:
    """CFG002 / CFG003: the bit-slice group and bit-serial cycle counts
    must be whole numbers."""
    out: list[Diagnostic] = []
    if cell_bits > 0 and weight_bits > 0 and weight_bits % cell_bits != 0:
        out.append(
            CFG002.diag(
                location,
                f"weight_bits={weight_bits} is not a multiple of "
                f"cell_bits={cell_bits}",
                hint="pick weight_bits divisible by cell_bits so the "
                "bit-slice group is whole",
            )
        )
    if dac_bits > 0 and input_bits > 0 and input_bits % dac_bits != 0:
        out.append(
            CFG003.diag(
                location,
                f"input_bits={input_bits} is not a multiple of "
                f"dac_bits={dac_bits}",
                hint="pick input_bits divisible by dac_bits so bit-serial "
                "cycles tile the activation",
            )
        )
    return out


def adc_resolution_diagnostics(
    adc_bits: int, rows: int, cell_bits: int, location: str
) -> list[Diagnostic]:
    """CFG004: the ADC must cover the tallest crossbar's partial sums."""
    if rows <= 0 or adc_bits <= 0 or cell_bits <= 0:
        return []  # positivity is CFG001 / SHP001 territory
    needed = required_adc_bits(rows, cell_bits)
    if adc_bits < needed:
        return [
            CFG004.diag(
                location,
                f"adc_bits={adc_bits} cannot resolve {rows}-row partial sums "
                f"({needed} bits needed)",
                hint=f"raise adc_bits to {needed} or drop crossbars taller "
                f"than {2**adc_bits - 1} rows",
            )
        ]
    return []


def _is_integer(value: object) -> bool:
    """A Python or NumPy integer; ``bool`` and every float are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def shape_dim_diagnostics(rows: int, cols: int, location: str) -> list[Diagnostic]:
    """SHP001: crossbar dimensions must be positive integers.

    An integral float is rejected too: ``64.0`` equals ``64`` but keys as
    ``"64.0x64"``, and a fractional dimension prices the kernel and the
    reference paths differently.
    """
    if not (_is_integer(rows) and _is_integer(cols)):
        return [
            SHP001.diag(
                location,
                f"crossbar dimensions must be integers, got {rows!r} x {cols!r}",
                hint="pass int (or NumPy integer) rows and cols",
            )
        ]
    if rows <= 0 or cols <= 0:
        return [
            SHP001.diag(
                location,
                f"crossbar dimensions must be positive, got {rows}x{cols}",
                hint="use positive rows and cols",
            )
        ]
    return []


def shape_discipline_diagnostics(
    rows: int, cols: int, location: str
) -> list[Diagnostic]:
    """SHP002 / SHP003: the paper's candidate-shape discipline (§3.3).

    Square candidates must be power-of-two; rectangle candidates must have
    heights that are multiples of 9 (matching ``Cin * 3^2`` footprints).
    Only *candidate sets* are held to this — ad-hoc shapes in unit tests
    or sweeps are legal hardware, just outside the search discipline.
    """
    out: list[Diagnostic] = []
    if rows <= 0 or cols <= 0:
        return out
    if rows == cols:
        if not is_power_of_two(rows):
            out.append(
                SHP003.diag(
                    location,
                    f"square candidate {rows}x{cols} is not power-of-two sized",
                    hint="use 32/64/128/256/512-class SXB shapes",
                )
            )
    else:
        if rows % 9 != 0:
            out.append(
                SHP002.diag(
                    location,
                    f"rectangle candidate height {rows} is not a multiple of 9",
                    hint="RXB heights must be 9*2^n-style multiples "
                    "(36, 72, 144, 288, 576) to match Cin*k^2 rows",
                )
            )
        if not is_power_of_two(cols):
            out.append(
                SHP003.diag(
                    location,
                    f"rectangle candidate width {cols} is not a power of two",
                    hint="pair each RXB height with a power-of-two width",
                )
            )
    return out


def config_value_diagnostics(
    *,
    weight_bits: int,
    input_bits: int,
    cell_bits: int,
    dac_bits: int,
    adc_bits: int,
    pes_per_tile: int,
    tiles_per_bank: int,
    adc_sharing: int,
    location: str = "HardwareConfig",
) -> list[Diagnostic]:
    """All scalar HardwareConfig invariants (CFG001-CFG003).

    This is exactly what ``HardwareConfig.__post_init__`` enforces; the
    static checker calls the same function on serialized config dicts.
    """
    out = positive_count_diagnostics(
        {
            "weight_bits": weight_bits,
            "input_bits": input_bits,
            "cell_bits": cell_bits,
            "dac_bits": dac_bits,
            "adc_bits": adc_bits,
            "pes_per_tile": pes_per_tile,
            "tiles_per_bank": tiles_per_bank,
            "adc_sharing": adc_sharing,
        },
        location,
    )
    out.extend(
        bit_divisibility_diagnostics(
            weight_bits, cell_bits, input_bits, dac_bits, location
        )
    )
    return out
