"""The calibrated error model: RBER as f(wear, retention) + ECC ladder.

Flash raw bit-error rate (RBER) grows with program/erase cycling and
with the time a page has sat since it was programmed. The shape used
here is the first-order model from the characterization literature
(Cai et al., *Error Patterns in MLC NAND Flash Memory*, DATE 2012;
Mielke et al., *Bit Error Rate in NAND Flash Memories*, IRPS 2008):
a wear term that scales linearly in erase count and a retention term
linear in elapsed time, both multiplying a fresh-page baseline::

    rber(e, dt) = rber_base * (1 + e / wear_scale)
                            * (1 + dt / retention_scale)

The ECC engine corrects up to ``ecc_rber`` at the default sensing
point. Above that, the controller walks a **read-retry ladder**
(adjusted reference voltages + stronger soft-decision decoding): tier
``k`` corrects up to ``ecc_rber * retry_rber_gain[k]`` but re-senses
the page for ``retry_sense_factors[k] * t_read``. A page whose
effective RBER exceeds the last tier is uncorrectable.

Randomness is a deterministic hash (FNV-1a) of ``(seed, page,
program-epoch, read-ordinal)``, so a given seed reproduces the exact
same fault sequence on every run — the property the determinism CI job
asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan

__all__ = ["FaultConfig", "ErrorModel", "ReadPlan", "stable_unit"]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def stable_unit(*keys: int) -> float:
    """A uniform draw in [0, 1) from integer keys via 64-bit FNV-1a.

    Unlike ``hash()`` this is stable across processes and Python
    versions, which is what makes fault traces byte-identical per seed.
    """
    h = _FNV_OFFSET
    for key in keys:
        k = int(key) & _MASK64
        for _ in range(8):
            h ^= k & 0xFF
            h = (h * _FNV_PRIME) & _MASK64
            k >>= 8
    return h / 2.0**64


@dataclass(frozen=True)
class FaultConfig:
    """Every knob of the fault subsystem. The default instance models a
    healthy mid-life TLC device: reads almost never retry, programs
    never fail. Erases have no knob: they fail only on a plan's
    structural facts (dead device or channel, bad block). Tests and
    experiments override aggressively."""

    #: master switch-equivalent: systems only build an injector when a
    #: config is passed, so absence of a config == faults disabled
    seed: int = 0xF417

    # --- raw bit-error-rate model -------------------------------------
    #: RBER of a fresh, just-programmed page
    rber_base: float = 5e-5
    #: erase count at which wear alone doubles the RBER (rated TLC
    #: endurance is a few thousand cycles)
    wear_scale: float = 3000.0
    #: retention seconds at which time alone doubles the RBER (~4 months)
    retention_scale: float = 1e7
    #: pages start life as if already erased this many times (used by
    #: the reliability experiments to model an aged device)
    initial_wear: int = 0
    #: per-read log2 jitter: the draw scales RBER by
    #: ``2 ** (jitter_log2 * (2u - 1))`` for u ~ U[0, 1)
    jitter_log2: float = 2.0

    # --- ECC + read-retry ladder --------------------------------------
    #: max RBER the ECC corrects at the default sensing point
    ecc_rber: float = 8e-3
    #: per-tier correction gain over ``ecc_rber``
    retry_rber_gain: Tuple[float, ...] = (1.8, 3.2, 5.6)
    #: per-tier re-sense time as a multiple of ``t_read``
    retry_sense_factors: Tuple[float, ...] = (1.25, 1.75, 2.75)

    # --- program failure ----------------------------------------------
    #: probability a program reports status-fail on a fresh block
    program_fail_base: float = 0.0
    #: added program-fail probability per block erase count
    program_fail_wear: float = 0.0

    # --- redundancy ---------------------------------------------------
    #: maintain one XOR parity unit per NDS building block and
    #: reconstruct lost pages from the surviving units (degraded reads)
    parity: bool = False

    #: scripted injections (kill a channel, mark a block bad, corrupt a
    #: page) applied as model time passes
    plan: Optional["FaultPlan"] = None

    def __post_init__(self) -> None:
        if self.rber_base < 0 or self.ecc_rber <= 0:
            raise ValueError("rber_base must be >= 0 and ecc_rber > 0")
        if self.wear_scale <= 0 or self.retention_scale <= 0:
            raise ValueError("wear/retention scales must be positive")
        if len(self.retry_rber_gain) != len(self.retry_sense_factors):
            raise ValueError(
                "retry_rber_gain and retry_sense_factors must have the "
                "same number of tiers")
        if any(g <= 1.0 for g in self.retry_rber_gain):
            raise ValueError("retry gains must exceed 1.0")


@dataclass
class ReadPlan:
    """Deterministic outcome of one page read against the ECC ladder."""

    #: extra sensing rounds charged (0 = clean first read)
    retries: int = 0
    #: per-retry sense time as multiples of ``t_read``
    sense_factors: List[float] = field(default_factory=list)
    #: ladder exhausted — the read fails after the charged retries
    uncorrectable: bool = False
    reason: str = "ecc"


class ErrorModel:
    """Pure functions of the fault configuration (no mutable state)."""

    def __init__(self, config: FaultConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def rber(self, erase_count: int, retention_seconds: float) -> float:
        """Modelled raw bit-error rate of a page at read time."""
        cfg = self.config
        wear = 1.0 + (cfg.initial_wear + erase_count) / cfg.wear_scale
        retention = 1.0 + max(0.0, retention_seconds) / cfg.retention_scale
        return cfg.rber_base * wear * retention

    def read_outcome(self, draw: float, rber: float) -> ReadPlan:
        """Walk the ladder for one read whose jittered RBER is
        ``rber * 2 ** (jitter_log2 * (2*draw - 1))``."""
        cfg = self.config
        effective = rber * 2.0 ** (cfg.jitter_log2 * (2.0 * draw - 1.0))
        if effective <= cfg.ecc_rber:
            return ReadPlan()
        plan = ReadPlan()
        for tier, gain in enumerate(cfg.retry_rber_gain):
            plan.retries = tier + 1
            plan.sense_factors.append(cfg.retry_sense_factors[tier])
            if effective <= cfg.ecc_rber * gain:
                return plan
        plan.uncorrectable = True
        return plan

    def full_ladder(self, reason: str) -> ReadPlan:
        """The outcome for a known-lost page (scripted corruption): the
        controller still walks every tier before giving up."""
        cfg = self.config
        return ReadPlan(retries=len(cfg.retry_rber_gain),
                        sense_factors=list(cfg.retry_sense_factors),
                        uncorrectable=True, reason=reason)

    # ------------------------------------------------------------------
    def program_fail_prob(self, erase_count: int) -> float:
        cfg = self.config
        return cfg.program_fail_base + cfg.program_fail_wear * (
            cfg.initial_wear + erase_count)
