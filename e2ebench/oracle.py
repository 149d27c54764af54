"""Independent output oracle.

A mapped network (BLIF text) is simulated here, bit-parallel over Python
ints, and compared with a reference that never comes from the engine:

* a registry or synthetic circuit's reference is its specification's
  node graph, taken from :meth:`MultiFunction.to_wire` when the input is
  generated and walked here without the program's BDD operations;
* a DC-plane variant's reference is the PLA rows the generator wrote.

Up to :data:`EXHAUSTIVE_MAX` inputs every minterm is checked; above it,
seeded random vectors are.  A mapped output must equal the reference
wherever the reference cares: ``lo <= out <= hi``.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Sequence, Tuple

EXHAUSTIVE_MAX = 16
RANDOM_VECTORS = 2048


class OracleError(ValueError):
    """The BLIF text cannot be simulated."""


def exhaustive_patterns(n: int) -> Tuple[List[int], int]:
    """Per-input bit patterns over all ``2**n`` minterms (input 0 is the
    most significant bit of the minterm index) and the full mask."""
    size = 1 << n
    full = (1 << size) - 1
    patterns = []
    for i in range(n):
        half = 1 << (n - 1 - i)
        period = half << 1
        block = ((1 << half) - 1) << half
        patterns.append(block * (full // ((1 << period) - 1)))
    return patterns, full


def random_patterns(n: int, count: int, seed: object
                    ) -> Tuple[List[int], int]:
    rng = random.Random(f"oracle:{seed}")
    return [rng.getrandbits(count) for _ in range(n)], (1 << count) - 1


class WireReference:
    """A specification's ``(lo, hi)`` interval per output, evaluated from
    its serialised node graph."""

    def __init__(self, wire_text: str) -> None:
        data = json.loads(wire_text)
        self.input_names: List[str] = list(data["input_names"])
        self.output_names: List[str] = list(data["output_names"])
        self.num_inputs = len(self.input_names)
        self._var_pos = {var: pos for pos, var in enumerate(data["inputs"])}
        self._nodes = [tuple(node) for node in data["nodes"]]
        self._roots = list(data["roots"])

    def values(self, patterns: Sequence[int], mask: int
               ) -> List[Tuple[int, int]]:
        vals = [0, mask]
        for var, low, high in self._nodes:
            pos = self._var_pos.get(var)
            if pos is None:
                raise OracleError(f"node on non-input variable {var}")
            x = patterns[pos]
            vals.append((x & vals[high]) | (~x & mask & vals[low]))
        roots = [vals[r] for r in self._roots]
        return [(roots[2 * j], roots[2 * j + 1])
                for j in range(len(roots) // 2)]

    def path_cubes(self, output: int) -> Tuple[List[str], List[str]]:
        """Disjoint cubes of a complete output's on-set and off-set: one
        per root-to-terminal path of its node graph."""
        root = self._roots[2 * output]
        if root != self._roots[2 * output + 1]:
            raise OracleError("path cubes need a complete output")
        found: Tuple[List[str], List[str]] = ([], [])
        stack = [(root, ["-"] * self.num_inputs)]
        while stack:
            node, cube = stack.pop()
            if node <= 1:
                found[1 - node].append("".join(cube))
                continue
            var, low, high = self._nodes[node - 2]
            pos = self._var_pos[var]
            for child, ch in ((low, "0"), (high, "1")):
                branch = list(cube)
                branch[pos] = ch
                stack.append((child, branch))
        return found


class PlaReference:
    """The on-set and DC-set a generated ``fd`` PLA encodes."""

    def __init__(self, pla_text: str) -> None:
        self.input_names: List[str] = []
        self.output_names: List[str] = []
        self._rows: List[Tuple[str, str]] = []
        for raw in pla_text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith(".ilb"):
                self.input_names = line.split()[1:]
            elif line.startswith(".ob"):
                self.output_names = line.split()[1:]
            elif line.startswith(".type") and line.split()[1] != "fd":
                raise OracleError("only fd PLAs are generated")
            elif not line.startswith("."):
                cube, outs = line.split()
                self._rows.append((cube, outs))
        self.num_inputs = len(self.input_names)

    def values(self, patterns: Sequence[int], mask: int
               ) -> List[Tuple[int, int]]:
        m = len(self.output_names)
        on = [0] * m
        dc = [0] * m
        for cube, outs in self._rows:
            bits = cube_bits(cube, patterns, mask)
            for j, ch in enumerate(outs):
                if ch == "1":
                    on[j] |= bits
                elif ch == "-":
                    dc[j] |= bits
        return [(on[j] & ~dc[j], on[j] | dc[j]) for j in range(m)]


def cube_bits(cube: str, patterns: Sequence[int], mask: int) -> int:
    bits = mask
    for ch, x in zip(cube, patterns):
        if ch == "1":
            bits &= x
        elif ch == "0":
            bits &= ~x
        if not bits:
            break
    return bits


def parse_blif(text: str) -> Tuple[List[str], List[str],
                                   Dict[str, Tuple[List[str],
                                                   List[Tuple[str, str]]]]]:
    """``(inputs, outputs, tables)`` with ``tables[signal] = (fanins,
    rows)`` for each ``.names`` block."""
    lines: List[str] = []
    pending = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line = (pending + line).strip()
        pending = ""
        if line:
            lines.append(line)
    inputs: List[str] = []
    outputs: List[str] = []
    tables: Dict[str, Tuple[List[str], List[Tuple[str, str]]]] = {}
    current: Optional[List[Tuple[str, str]]] = None
    width = 0
    for line in lines:
        parts = line.split()
        if parts[0] == ".inputs":
            inputs.extend(parts[1:])
            current = None
        elif parts[0] == ".outputs":
            outputs.extend(parts[1:])
            current = None
        elif parts[0] == ".names":
            if len(parts) < 2:
                raise OracleError(".names without a signal")
            current = []
            width = len(parts) - 2
            if parts[-1] in tables:
                raise OracleError(f"{parts[-1]} defined twice")
            tables[parts[-1]] = (parts[1:-1], current)
        elif parts[0] in (".model", ".end"):
            current = None
        elif parts[0].startswith("."):
            raise OracleError(f"unsupported BLIF directive {parts[0]}")
        elif current is None:
            raise OracleError(f"row outside .names: {line!r}")
        else:
            if width == 0 and len(parts) == 1:
                current.append(("", parts[0]))
            elif len(parts) != 2 or len(parts[0]) != width:
                raise OracleError(f"bad row {line!r}")
            else:
                current.append((parts[0], parts[1]))
    return inputs, outputs, tables


def simulate(text: str, input_patterns: Dict[str, int], mask: int
             ) -> Dict[str, int]:
    """Bit-parallel values of every BLIF output."""
    inputs, outputs, tables = parse_blif(text)
    values: Dict[str, int] = {}
    for name in inputs:
        if name not in input_patterns:
            raise OracleError(f"BLIF input {name} is not a spec input")
        values[name] = input_patterns[name]
    waiting = {sig: {f for f in fanins if f not in values}
               for sig, (fanins, _) in tables.items()}
    readers: Dict[str, List[str]] = {}
    for sig, deps in waiting.items():
        for dep in deps:
            if dep not in tables:
                raise OracleError(f"undriven signal {dep}")
            readers.setdefault(dep, []).append(sig)
    ready = [sig for sig, deps in waiting.items() if not deps]
    while ready:
        sig = ready.pop()
        fanins, rows = tables[sig]
        pats = [values[f] for f in fanins]
        on = 0
        polarity = rows[0][1] if rows else "1"
        for cube, out in rows:
            if out != polarity:
                raise OracleError(f"{sig}: mixed row polarity")
            on |= cube_bits(cube, pats, mask)
        values[sig] = (mask & ~on) if polarity == "0" else on
        for reader in readers.get(sig, ()):
            waiting[reader].discard(sig)
            if not waiting[reader]:
                ready.append(reader)
    missing = [name for name in outputs if name not in values]
    if missing:
        raise OracleError(f"outputs not computable (cycle or undriven): "
                          f"{missing[:3]}")
    return {name: values[name] for name in outputs}


def check(reference, blif_text: str, seed: object = 0) -> List[str]:
    """Names of the outputs whose mapped value leaves the reference's
    interval somewhere; empty means the network is correct."""
    n = reference.num_inputs
    if n <= EXHAUSTIVE_MAX:
        patterns, mask = exhaustive_patterns(n)
    else:
        patterns, mask = random_patterns(n, RANDOM_VECTORS, seed)
    expected = reference.values(patterns, mask)
    try:
        got = simulate(blif_text,
                       dict(zip(reference.input_names, patterns)), mask)
    except OracleError as exc:
        return [f"unsimulatable: {exc}"]
    bad = []
    for name, (lo, hi) in zip(reference.output_names, expected):
        out = got.get(name)
        if out is None or (lo & ~out) or (out & ~hi & mask):
            bad.append(name)
    return bad
