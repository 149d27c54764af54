"""Two-input-gate realisation of decomposed networks.

The paper's arithmetic experiments (Figures 2 and 3, the multiplier
scaling claim) report *two-input gate* counts.  We reproduce that cost
model by decomposing down to 3-input blocks (``n_lut = 3``) and realising
every block with a minimal two-input-gate tree:

* a dynamic program over the 256 three-variable functions computes, once
  per process, the minimum tree size in {AND, OR, XOR} gates with free
  input/output negation (inverters are tracked separately — the classic
  academic counting convention, applied identically to our circuits and
  to the baselines, so comparisons are fair);
* gate networks are structurally hashed, so identical subfunctions are
  shared across blocks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.boolfunc.spec import MultiFunction
from repro.mapping.lutnet import CONST0, CONST1, LutNetwork

_MASK = 0xFF
_PROJ = (0xF0, 0xCC, 0xAA)  # x0 (MSB), x1, x2 over 3-var minterms
_OPS = ("and", "or", "xor")


def _apply(op: str, a: int, b: int) -> int:
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    return (a ^ b) & _MASK


class _Plan:
    """Best realisation of one negation-class of 3-var functions."""

    __slots__ = ("cost", "depth", "fn", "op", "arg_a", "arg_b")

    def __init__(self, cost: int, depth: int, fn: int,
                 op: Optional[str] = None,
                 arg_a: Optional[Tuple[int, int]] = None,
                 arg_b: Optional[Tuple[int, int]] = None):
        self.cost = cost          # binary gates
        self.depth = depth        # binary gate levels
        self.fn = fn              # the function the plan's signal computes
        self.op = op              # None for leaves
        self.arg_a = arg_a        # (function int, _) of the left operand
        self.arg_b = arg_b


_DP: Optional[Dict[int, _Plan]] = None


def _cls(f: int) -> int:
    return min(f, (~f) & _MASK)


def _support_mask(f: int) -> int:
    """Bitmask of the variables an 8-bit function depends on."""
    mask = 0
    if (f >> 4) & 0x0F != f & 0x0F:
        mask |= 4  # x0
    if (f >> 2) & 0x33 != f & 0x33:
        mask |= 2  # x1
    if (f >> 1) & 0x55 != f & 0x55:
        mask |= 1  # x2
    return mask


def _build_dp() -> Dict[int, _Plan]:
    best: Dict[int, _Plan] = {}
    # Leaves: constants and projections (zero gates).
    best[_cls(0x00)] = _Plan(0, 0, 0x00)
    for proj in _PROJ:
        best[_cls(proj)] = _Plan(0, 0, proj)
    changed = True
    while changed:
        changed = False
        reps = list(best.items())
        for ca, plan_a in reps:
            for cb, plan_b in reps:
                for fa in (plan_a.fn, (~plan_a.fn) & _MASK):
                    for fb in (plan_b.fn, (~plan_b.fn) & _MASK):
                        for op in _OPS:
                            f = _apply(op, fa, fb)
                            # Reject plans whose operands use variables
                            # outside the result's support — guarantees a
                            # k-input node never references a missing
                            # fanin, and never costs optimality (a
                            # cancellation-free minimal tree always
                            # exists).
                            if (_support_mask(fa) | _support_mask(fb)) \
                                    & ~_support_mask(f):
                                continue
                            c = _cls(f)
                            cost = plan_a.cost + plan_b.cost + 1
                            depth = max(plan_a.depth, plan_b.depth) + 1
                            old = best.get(c)
                            if (old is None
                                    or (cost, depth) < (old.cost,
                                                        old.depth)):
                                best[c] = _Plan(cost, depth, f, op,
                                                (fa, 0), (fb, 0))
                                changed = True
    if len(best) != 128:
        raise AssertionError("3-var DP did not cover all classes")
    return best


def _dp() -> Dict[int, _Plan]:
    global _DP
    if _DP is None:
        _DP = _build_dp()
    return _DP


def optimal_gate_cost(table: Sequence[int]) -> int:
    """Minimal two-input-gate tree size for a function of <= 3 variables.

    ``table`` is the usual MSB-first truth table of length 2, 4 or 8.
    """
    f = _embed(table)
    return _dp()[_cls(f)].cost


def _embed(table: Sequence[int]) -> int:
    """Embed a k<=3 variable table into the 3-variable function space."""
    k = {2: 1, 4: 2, 8: 3}.get(len(table))
    if k is None:
        raise ValueError("table must have 2, 4 or 8 entries")
    f = 0
    for i in range(8):
        if table[i >> (3 - k)]:
            f |= 1 << i
    return f


def _normalise_const(sig: Tuple[str, bool]) -> Tuple[str, bool]:
    if sig == (CONST0, True):
        return (CONST1, False)
    if sig == (CONST1, True):
        return (CONST0, False)
    return sig


def _fold(op: str, a: Tuple[str, bool],
          b: Tuple[str, bool]) -> Optional[Tuple[str, bool]]:
    """Constant and duplicate-operand simplification; None if a real gate
    is needed."""
    const0, const1 = (CONST0, False), (CONST1, False)
    for x, y in ((a, b), (b, a)):
        if x == const0:
            return {"and": const0, "or": y, "xor": y}[op]
        if x == const1:
            return {"and": y, "or": const1,
                    "xor": (y[0], not y[1])}[op]
    if a == b:
        return {"and": a, "or": a, "xor": const0}[op]
    if a[0] == b[0] and a[1] != b[1]:
        return {"and": const0, "or": const1, "xor": const1}[op]
    return None


class Gate:
    """A gate: op in {and, or, xor, not}; fanins are (signal, negated)."""

    __slots__ = ("name", "op", "fanins")

    def __init__(self, name: str, op: str,
                 fanins: List[Tuple[str, bool]]):
        self.name = name
        self.op = op
        self.fanins = fanins


class GateNetwork:
    """A DAG of two-input gates (plus explicit output inverters)."""

    def __init__(self) -> None:
        self.inputs: List[str] = []
        self.gates: Dict[str, Gate] = {}
        self.outputs: Dict[str, Tuple[str, bool]] = {}
        self._order: List[str] = []
        self._hash: Dict[Tuple, str] = {}
        self._counter = 0

    def add_input(self, name: str) -> str:
        """Declare a primary input signal."""
        self.inputs.append(name)
        return name

    def add_gate(self, op: str, a: Tuple[str, bool],
                 b: Tuple[str, bool]) -> Tuple[str, bool]:
        """Add a binary gate; returns its (signal, maybe-negated).

        Structurally hashed, commutativity-normalised, and constant/
        duplicate operands are folded away (no gate is created).
        """
        if op not in _OPS:
            raise ValueError(f"unknown op {op!r}")
        # Normalise constants to positive polarity.
        a = _normalise_const(a)
        b = _normalise_const(b)
        folded = _fold(op, a, b)
        if folded is not None:
            return folded
        # XOR input negations float to the output.
        neg_out = False
        if op == "xor":
            neg_out = a[1] ^ b[1]
            a, b = (a[0], False), (b[0], False)
        key = (op,) + tuple(sorted([a, b]))
        existing = self._hash.get(key)
        if existing is None:
            self._counter += 1
            name = f"g{self._counter}"
            self.gates[name] = Gate(name, op, list(sorted([a, b])))
            self._order.append(name)
            self._hash[key] = name
            existing = name
        return existing, neg_out

    def set_output(self, name: str, signal: Tuple[str, bool]) -> None:
        """Bind a primary output to a (signal, negated) pair."""
        self.outputs[name] = signal

    def live_gates(self) -> Set[str]:
        """Gates reachable from the primary outputs."""
        live: Set[str] = set()
        stack = [s for s, _ in self.outputs.values() if s in self.gates]
        while stack:
            name = stack.pop()
            if name in live:
                continue
            live.add(name)
            for s, _ in self.gates[name].fanins:
                if s in self.gates:
                    stack.append(s)
        return live

    @property
    def gate_count(self) -> int:
        """Live binary gates (inverters are free in this cost model;
        gates not reachable from any output are dead and not counted)."""
        return len(self.live_gates())

    @property
    def total_gate_count(self) -> int:
        """All created binary gates, dead ones included."""
        return len(self.gates)

    @property
    def inverter_count(self) -> int:
        """Negations that must be realised (negated gate fanins/outputs
        of non-XOR consumers plus negated primary outputs)."""
        negated = set()
        for gate in self.gates.values():
            for signal, neg in gate.fanins:
                if neg:
                    negated.add(signal)
        for signal, neg in self.outputs.values():
            if neg:
                negated.add(signal)
        return len(negated)

    def depth(self) -> int:
        """Binary-gate levels on the longest path."""
        level: Dict[str, int] = {name: 0 for name in self.inputs}
        level[CONST0] = 0
        level[CONST1] = 0
        for name in self._order:
            gate = self.gates[name]
            level[name] = 1 + max(level[s] for s, _ in gate.fanins)
        return max((level[s] for s, _ in self.outputs.values()), default=0)

    def evaluate(self, assignment: Dict[str, int]) -> Dict[str, int]:
        """Simulate the network; returns every gate signal's value."""
        values: Dict[str, int] = {CONST0: 0, CONST1: 1}
        values.update({k: int(v) for k, v in assignment.items()})
        for name in self._order:
            gate = self.gates[name]
            (sa, na), (sb, nb) = gate.fanins
            va = values[sa] ^ (1 if na else 0)
            vb = values[sb] ^ (1 if nb else 0)
            values[name] = _apply_bit(gate.op, va, vb)
        return values

    def eval_outputs(self, assignment: Dict[str, int]) -> Dict[str, int]:
        """Primary-output values (output polarities applied)."""
        values = self.evaluate(assignment)
        return {out: values[sig] ^ (1 if neg else 0)
                for out, (sig, neg) in self.outputs.items()}


def _apply_bit(op: str, a: int, b: int) -> int:
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    return a ^ b


def to_gates(net: LutNetwork) -> GateNetwork:
    """Convert a LUT network with max fanin 3 into two-input gates."""
    if net.max_fanin() > 3:
        raise ValueError("decompose with n_lut<=3 before gate conversion")
    dp = _dp()
    gnet = GateNetwork()
    for name in net.inputs:
        gnet.add_input(name)
    # signal name in the LUT net -> (gate signal, negated)
    signal: Dict[str, Tuple[str, bool]] = {
        name: (name, False) for name in net.inputs}
    signal[CONST0] = (CONST0, False)
    signal[CONST1] = (CONST1, False)

    for node in net.node_list():
        fanins = [signal[s] for s in node.fanins]
        f = _embed(node.table)

        memo: Dict[int, Tuple[str, bool]] = {}

        def emit(fn: int) -> Tuple[str, bool]:
            """Signal computing the 3-var function `fn` over this node's
            fanins."""
            if fn in memo:
                return memo[fn]
            if fn == 0x00:
                result = (CONST0, False)
            elif fn == _MASK:
                result = (CONST1, False)
            else:
                for i, proj in enumerate(_PROJ):
                    if fn == proj and i < len(fanins):
                        result = fanins[i]
                        break
                    if fn == ((~proj) & _MASK) and i < len(fanins):
                        s, neg = fanins[i]
                        result = (s, not neg)
                        break
                else:
                    plan = dp[_cls(fn)]
                    sig_a = emit(plan.arg_a[0])
                    sig_b = emit(plan.arg_b[0])
                    sig, neg = gnet.add_gate(plan.op, sig_a, sig_b)
                    if plan.fn != fn:
                        neg = not neg
                    result = (sig, neg)
            memo[fn] = result
            return result

        signal[node.name] = emit(f)

    for out, sig in net.outputs.items():
        gnet.set_output(out, signal[sig])
    return gnet


def gate_synthesize(func: MultiFunction,
                    use_dontcares: Optional[bool] = None,
                    **engine_kwargs) -> GateNetwork:
    """Decompose to 3-input blocks, then realise with two-input gates.

    Balanced (communication-minimising) bound sets are used by default —
    this is the mode behind the paper's two-input-gate results.  The
    driving engine's :class:`DecompositionStats` (phase timings, BDD
    counters) are attached to the result as ``decomposition_stats``.
    """
    from repro.decomp.recursive import DecompositionEngine
    engine_kwargs.setdefault("balanced", True)
    engine = DecompositionEngine(n_lut=3, use_dontcares=use_dontcares,
                                 **engine_kwargs)
    lut_net = engine.run(func)
    gnet = to_gates(lut_net)
    gnet.decomposition_stats = engine.stats
    return gnet
