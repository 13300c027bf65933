"""Seeded synthetic ``.bench`` netlists, written by the benchmark itself.

The program only ever sees the file: the CLI workload's large-circuit
command parses it like any user netlist.  Gates read from a sliding
window of recent nets, which bounds the logic depth: 20 000 gates give
about 270-280 levels.
"""

from __future__ import annotations

import random
from pathlib import Path

#: ISCAS keyword -> allowed fan-ins.
_KINDS = (("NAND", (2, 3, 4)), ("NOR", (2, 3)), ("AND", (2, 3, 4)),
          ("OR", (2, 3)), ("XOR", (2,)), ("NOT", (1,)), ("BUFF", (1,)))
_WEIGHTS = (30, 20, 15, 12, 6, 14, 3)
#: Primary inputs of every netlist.
N_INPUTS = 256
#: Gates read from the last WINDOW nets.
WINDOW = 400


def write_bench(path: Path, n_gates: int, seed: int) -> None:
    """Write a random combinational netlist.

    Every net that no gate reads becomes a primary output, so no logic
    is dangling.
    """
    rng = random.Random(seed)
    inputs = [f"i{k}" for k in range(N_INPUTS)]
    nets = list(inputs)
    read = set()
    lines = []
    for g in range(n_gates):
        kind, fanins = rng.choices(_KINDS, weights=_WEIGHTS)[0]
        k = rng.choice(fanins)
        lo = max(0, len(nets) - WINDOW)
        srcs = rng.sample(range(lo, len(nets)), k)
        ins = [nets[s] for s in srcs]
        read.update(ins)
        out = f"g{g}"
        lines.append(f"{out} = {kind}({', '.join(ins)})")
        nets.append(out)
    outputs = [n for n in nets[N_INPUTS:] if n not in read]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# e2ebench synthetic netlist: {n_gates} gates, "
                 f"seed {seed}\n")
        for name in inputs:
            fh.write(f"INPUT({name})\n")
        for name in outputs:
            fh.write(f"OUTPUT({name})\n")
        fh.write("\n".join(lines))
        fh.write("\n")
