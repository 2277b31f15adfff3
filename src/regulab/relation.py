"""Closed-loop relation between a finite system and its regulator.

The regulated process is a finite-state transducer: a transition function
over (state, control input, disturbance) and a real-valued emission per
state. The regulator observes the emission and answers with a control
symbol through its policy. One tick runs in a fixed order:

1. the system emits its output (acquisition, the feedforward leg),
2. the regulator updates its own state and picks a control symbol,
3. in closed-loop mode only, that control symbol enters the system's
   transition together with the system disturbance (the comparator, or
   feedback leg); in open-loop feedforward mode the system transitions on
   its idle input and the control symbol is discarded,
4. the optional internal model records the observed system state.

Disturbances arrive as a pair per tick: one symbol for the system channel
(fed to its transition) and one for the regulator channel. The regulator
channel is data only: it is carried in the trajectory's ``rho`` column and
changes nothing the regulator sees.

Everything is a frozen value; stepping returns a new relation. A run is
therefore a pure function of (relation, disturbance stream, tick count),
and serialized trajectories are byte-for-byte reproducible.

Regulation quality is scored two ways on the output stream: holding a
scalar constant (plug-in Shannon entropy of the binned outputs, in bits)
and keeping the sequence predictable (a block entropy rate over the same
bins). Both use equal-width bins over the observed output range.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields, replace
from typing import Callable, Collection, Hashable, Optional

import numpy as np

from .variety import StateSet

Symbol = Hashable


class DestroyedVarietyError(ValueError):
    """An observation fell outside the regulator policy's declared range,
    so the regulator cannot answer it."""

    def __init__(self, symbol: object, tick: int) -> None:
        self.symbol = symbol
        self.tick = tick
        super().__init__(f"observation {symbol!r} at tick {tick} is outside the regulator "
                         "policy's declared range")


@dataclass(frozen=True)
class DiscreteSystem:
    """Finite transducer: ``transition(state, control, disturbance)`` must be
    total over states x input alphabet x disturbance alphabet; ``emission``
    maps each state to a real output. ``idle_input`` is the control symbol
    the system receives when no feedback leg is attached."""

    states: StateSet
    input_alphabet: tuple[Symbol, ...]
    disturbance_alphabet: tuple[Symbol, ...]
    transition: Callable[[Symbol, Symbol, Symbol], Symbol]
    emission: Callable[[Symbol], float]
    idle_input: Symbol

    def __post_init__(self) -> None:
        if self.idle_input not in self.input_alphabet:
            raise ValueError(f"idle input {self.idle_input!r} not in the input alphabet")
        # Totality probe: cheap for the finite toy alphabets this module targets.
        for s in self.states.labels:
            for u in self.input_alphabet:
                for d in self.disturbance_alphabet:
                    nxt = self.transition(s, u, d)
                    if nxt not in self.states:
                        raise ValueError(
                            f"transition({s!r}, {u!r}, {d!r}) left the state set: {nxt!r}"
                        )


@dataclass(frozen=True)
class Regulator:
    """Policy maps (observed output, own state) to (next state, control
    symbol) and must be total over the declared observation range x states."""

    states: StateSet
    observations: frozenset
    policy: Callable[[float, Symbol], tuple[Symbol, Symbol]]

    def __post_init__(self) -> None:
        for y in self.observations:
            for r in self.states.labels:
                nxt, _ = self.policy(y, r)
                if nxt not in self.states:
                    raise ValueError(
                        f"policy({y!r}, {r!r}) left the regulator state set: {nxt!r}"
                    )


@dataclass(frozen=True)
class InternalModel:
    """Sliding-window visitation frequencies of the observed system states.
    ``estimate`` sums to 1 once at least one state has been seen."""

    horizon: int
    window: tuple[Symbol, ...] = ()

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")

    @property
    def estimate(self) -> dict[Symbol, float]:
        if not self.window:
            return {}
        counts = Counter(self.window)
        total = len(self.window)
        return {s: c / total for s, c in counts.items()}


class LoopMode:
    CLOSED = "closed"
    FEEDFORWARD = "feedforward"


@dataclass(frozen=True)
class ClosedLoopRelation:
    """System and regulator coupled on a common domain, with an optional
    internal model, a goal predicate over outputs, and a loop mode."""

    system: DiscreteSystem
    regulator: Regulator
    goal: Callable[[float], bool]
    mode: str = LoopMode.CLOSED
    model: Optional[InternalModel] = None
    s_state: Symbol = None
    r_state: Symbol = None

    def __post_init__(self) -> None:
        if self.mode not in (LoopMode.CLOSED, LoopMode.FEEDFORWARD):
            raise ValueError(f"unknown loop mode: {self.mode!r}")
        if self.s_state is None:
            object.__setattr__(self, "s_state", self.system.states.labels[0])
        if self.r_state is None:
            object.__setattr__(self, "r_state", self.regulator.states.labels[0])
        if self.s_state not in self.system.states:
            raise ValueError(f"initial system state {self.s_state!r} unknown")
        if self.r_state not in self.regulator.states:
            raise ValueError(f"initial regulator state {self.r_state!r} unknown")


@dataclass(frozen=True)
class Trajectory:
    """One column per field of a tick; row k is tick k."""

    s_state: tuple[Symbol, ...]
    r_state: tuple[Symbol, ...]
    output: tuple[float, ...]
    error: tuple[float, ...]
    phi: tuple[Symbol, ...]
    rho: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        lengths = [len(getattr(self, f.name)) for f in fields(self)]
        if len(set(lengths)) > 1:
            raise ValueError(f"columns differ in length: {lengths}")

    def __len__(self) -> int:
        return len(self.output)


def run_relation(
    rel: ClosedLoopRelation,
    disturbance_stream: list[tuple[Symbol, Symbol]],
    T: int,
) -> Trajectory:
    """Run T ticks. Deterministic given inputs."""
    traj, _ = run_relation_carry(rel, disturbance_stream, T)
    return traj


def run_relation_carry(
    rel: ClosedLoopRelation,
    disturbance_stream: list[tuple[Symbol, Symbol]],
    T: int,
) -> tuple[Trajectory, ClosedLoopRelation]:
    """Like ``run_relation`` but also returns the final relation, so runs
    compose: two runs of 50 with state carried over equal one run of 100.
    A ``DestroyedVarietyError`` names the tick within this run.

    The ticks run on local variables; the relation and its internal model
    are rebuilt once, at the end."""
    if T < 1:
        raise ValueError(f"need at least 1 tick, got {T}")
    if len(disturbance_stream) < T:
        raise ValueError(f"disturbance stream has {len(disturbance_stream)} entries, need {T}")
    system, regulator = rel.system, rel.regulator
    emission, transition, idle = system.emission, system.transition, system.idle_input
    policy, observations = regulator.policy, regulator.observations
    goal = rel.goal
    feedback = rel.mode == LoopMode.CLOSED
    s_state, r_state = rel.s_state, rel.r_state
    columns = s_col, r_col, out_col, err_col, phi_col, rho_col = [], [], [], [], [], []
    for k in range(T):
        phi, rho = disturbance_stream[k]
        output = emission(s_state)
        if output not in observations:
            raise DestroyedVarietyError(output, tick=k)
        next_r, control = policy(output, r_state)
        next_s = transition(s_state, control if feedback else idle, phi)
        s_col.append(s_state)
        r_col.append(r_state)
        out_col.append(output)
        err_col.append(0.0 if goal(output) else 1.0)
        phi_col.append(phi)
        rho_col.append(rho)
        s_state, r_state = next_s, next_r
    if (model := rel.model) is not None:
        h = model.horizon
        model = replace(model, window=(model.window + tuple(s_col[-h:]))[-h:])
    traj = Trajectory(*map(tuple, columns))
    return traj, replace(rel, s_state=s_state, r_state=r_state, model=model)


def _bin_outputs(outputs: tuple[float, ...], bins: int) -> np.ndarray:
    """The equal-width bin, in [0, bins), of each output over their range."""
    y = np.asarray(outputs, dtype=float)
    lo, hi = float(y.min()), float(y.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):  # nan too
        raise ValueError(f"outputs must be finite to bin, got a range of [{lo}, {hi}]")
    if hi == lo:
        return np.zeros(len(y), dtype=np.int64)
    width = (hi - lo) / bins
    if width in (0.0, math.inf):
        # The range under- or overflows: bin the values scaled by a power of two.
        return _bin_outputs(y * (0.5 if width else 2.0**1000), bins)
    return np.minimum(((y - lo) / width).astype(np.int64), bins - 1)


def _entropy_bits(counts: Collection[int]) -> float:
    """Plug-in entropy of the counts, summed in their order."""
    total = sum(counts)
    h = 0.0
    for c in counts:
        p = c / total
        h -= p * math.log2(p)
    return h


def point_regulation_score(traj: Trajectory, bins: int) -> float:
    """Plug-in Shannon entropy (bits) of the outputs histogrammed into
    equal-width bins over the observed range. 0 means the output is held
    constant; log2(bins) means it wanders uniformly. Outputs must be finite."""
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    if len(traj) == 0:
        raise ValueError("cannot score an empty trajectory")
    symbols = _bin_outputs(traj.output, bins)
    # Summed in the order each bin first occurs, as a Counter of them sums.
    occupied, first = np.unique(symbols, return_index=True)
    return _entropy_bits(np.bincount(symbols)[occupied[np.argsort(first)]].tolist())


def path_regulation_score(traj: Trajectory, order: int, bins: int) -> float:
    """Block entropy rate (bits): H(blocks of order+1) - H(blocks of order)
    over the binned outputs.

    Blocks are taken circularly (each window wraps past the end), which
    makes every marginal of the joint block distribution equal the plain
    output histogram. The estimate is therefore an exact conditional
    entropy: it is never negative and never exceeds the point score.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    if len(traj) <= order:
        raise ValueError(f"trajectory of {len(traj)} ticks is too short for order {order}")
    symbols = _bin_outputs(traj.output, bins).tolist()
    n = len(symbols)
    wrapped = symbols + symbols[:order]
    blocks_hi = Counter(tuple(wrapped[i : i + order + 1]) for i in range(n))
    blocks_lo = Counter(tuple(wrapped[i : i + order]) for i in range(n))
    return max(0.0, _entropy_bits(blocks_hi.values()) - _entropy_bits(blocks_lo.values()))


def trajectory_to_csv(traj: Trajectory) -> tuple:
    """The columns of the CSV header ``tick,s_state,r_state,output,error,phi,
    rho``, built in that order: the ticks, ``output`` and ``error`` as float
    arrays, and the symbols as text, whatever their types."""

    def text(column: tuple) -> list[str]:  # as "{}" writes it, a float symbol too
        return list(map(format, column))

    return (range(len(traj)), text(traj.s_state), text(traj.r_state),
            np.asarray(traj.output, dtype=float), np.asarray(traj.error, dtype=float),
            text(traj.phi), text(traj.rho))


def toggle_benchmark(mode: str = LoopMode.CLOSED) -> ClosedLoopRelation:
    """Two-state benchmark: the system flips state every tick unless the
    regulator pins it, and the goal is output 0. Closed loop reaches the
    goal within two ticks; feedforward oscillates forever."""
    states = StateSet(("s0", "s1"))

    def transition(s: Symbol, u: Symbol, phi: Symbol) -> Symbol:
        if u == "correct":
            return "s0"
        return "s1" if s == "s0" else "s0"

    def emission(s: Symbol) -> float:
        return 0.0 if s == "s0" else 1.0

    system = DiscreteSystem(
        states=states,
        input_alphabet=("idle", "correct"),
        disturbance_alphabet=("kick",),
        transition=transition,
        emission=emission,
        idle_input="idle",
    )

    def policy(y: float, r: Symbol) -> tuple[Symbol, Symbol]:
        return ("r0" if y == 0.0 else "r1", "correct")

    regulator = Regulator(
        states=StateSet(("r0", "r1")),
        observations=frozenset({0.0, 1.0}),
        policy=policy,
    )
    return ClosedLoopRelation(
        system=system,
        regulator=regulator,
        goal=lambda y: y == 0.0,
        mode=mode,
        model=InternalModel(horizon=64),
        s_state="s1",
        r_state="r0",
    )
