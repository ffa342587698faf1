"""Seeded command lists for the benchmark workloads.

Each workload is a fixed list of ``fockcap.cli`` commands.  The specs
(kind, n, p) of every command are fixed, so the amount of work does not
depend on the seed; the seed draws only the energies, beta, mu, the ``ops``
mode index and the order in which the commands run.  Each command carries
what the output oracle needs to check its output (see oracle.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("exact-checks", "large-space", "export")

# Values the seed draws from.  Every energy is nonzero, so a diagonal
# Hamiltonian always builds every mode's product, and mu <= 0 keeps every
# Boltzmann weight at most 1, so no sweep point can overflow.  Spectrum
# energies are drawn without repeats: equal energies would merge most levels
# (101 in place of 10191..13331 for the exact n=2, p=200 model), and the
# output size would then depend on the seed.
ENERGIES_EXACT = (2, 3, 5, 7)
ENERGIES_FLOAT = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
BETAS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
MUS = (-2.0, -1.5, -1.0, -0.5, 0.0)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: the argv after ``fockcap`` and how to check it.

    ``check`` names an oracle in oracle.py; ``params`` are its arguments.
    """

    argv: tuple[str, ...]
    check: str
    params: dict

    def label(self) -> str:
        return " ".join(self.argv)


def _spec_args(kind: str, n: int, p: int) -> list[str]:
    return ["--kind", kind, "--n", str(n), "--p", str(p)]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _verify(kind, n, p):
    return Command(tuple(["verify"] + _spec_args(kind, n, p)), "verify-text",
                   {"specs": [[kind, n, p]], "suite": "relations"})


def _verify_grid(n_max, p_max):
    specs = [[kind, n, p] for kind in ("fermi", "bose")
             for n in range(1, n_max + 1) for p in range(1, p_max + 1)]
    return Command(("verify", "--grid", str(n_max), str(p_max), "--json"), "verify-json",
                   {"specs": specs, "suite": "relations"})


def _lie(kind, n, p):
    return Command(tuple(["lie"] + _spec_args(kind, n, p)), "verify-text",
                   {"specs": [[kind, n, p]], "suite": "lie"})


def _spectrum_exact(rng, n, p):
    energies = rng.sample(ENERGIES_EXACT, n)
    return Command(tuple(["spectrum"] + _spec_args("bose", n, p) + ["--energies", _csv(energies)]),
                   "spectrum", {"kind": "bose", "n": n, "p": p, "energies": energies,
                                "exact": True})


def _spectrum_float(rng, n, p):
    energies = rng.sample(ENERGIES_FLOAT, n)
    return Command(tuple(["spectrum"] + _spec_args("bose", n, p)
                         + ["--backend", "float", "--energies", _csv(energies)]),
                   "spectrum", {"kind": "bose", "n": n, "p": p, "energies": energies,
                                "exact": False})


def _thermo(rng, n, p):
    energies = [rng.choice(ENERGIES_FLOAT) for _ in range(n)]
    betas = sorted(rng.sample(BETAS, 2))
    mus = sorted(rng.sample(MUS, 2))
    # "--mu=-1,0": argparse would read "--mu -1,0" as an unknown flag.
    argv = (["thermo"] + _spec_args("bose", n, p)
            + ["--beta", _csv(betas), f"--mu={_csv(mus)}", "--energies", _csv(energies)])
    return Command(tuple(argv), "thermo-csv",
                   {"kind": "bose", "n": n, "p": p, "energies": energies,
                    "betas": betas, "mus": mus})


def _basis(kind, n, p, as_json):
    argv = ["basis"] + _spec_args(kind, n, p) + (["--json"] if as_json else [])
    return Command(tuple(argv), "basis-json" if as_json else "basis-csv",
                   {"kind": kind, "n": n, "p": p})


def _ops(rng, kind, n, p, op, normalization):
    i = rng.randint(1, n)
    argv = (["ops"] + _spec_args(kind, n, p)
            + ["--op", op, "--i", str(i), "--json", "--normalization", normalization])
    return Command(tuple(argv), "ops-json",
                   {"kind": kind, "n": n, "p": p, "op": op, "i": i,
                    "normalization": normalization})


def commands(workload: str, seed: int, tiny: bool = False) -> list[Command]:
    """The command list of a workload for a seed.

    ``tiny`` shrinks every spec so that the benchmark's own smoke test runs
    in seconds; it keeps the command kinds and the layers they exercise.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "exact-checks":
        if tiny:
            cmds = [_verify("bose", 2, 3), _verify("fermi", 3, 2), _lie("bose", 2, 3),
                    _lie("fermi", 2, 2), _verify_grid(2, 2)]
        else:
            cmds = [_verify("bose", 5, 8), _verify("fermi", 8, 5), _lie("bose", 3, 8),
                    _lie("fermi", 4, 4), _verify_grid(4, 4)]
    elif workload == "large-space":
        if tiny:
            cmds = [_spectrum_exact(rng, 2, 10), _thermo(rng, 3, 4), _spectrum_float(rng, 2, 4)]
        else:
            cmds = [_spectrum_exact(rng, 2, 200), _thermo(rng, 8, 10),
                    _spectrum_float(rng, 4, 12)]
    elif workload == "export":
        if tiny:
            cmds = [_basis("bose", 2, 5, True), _basis("bose", 2, 5, False),
                    _ops(rng, "bose", 2, 5, "annihilate", "unnormalized"),
                    _ops(rng, "fermi", 4, 2, "create", "orthonormal")]
        else:
            cmds = [_basis("bose", 4, 30, True), _basis("bose", 4, 30, False),
                    _ops(rng, "bose", 4, 30, "annihilate", "unnormalized"),
                    _ops(rng, "fermi", 14, 6, "create", "orthonormal")]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(cmds)
    return cmds
