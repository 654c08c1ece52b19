"""Inputs and operations of the three workloads.

Every op is one `abelianj` command line run in-process through
`abelianj.cli.main`.  Inputs come from the run's seed; each workload fixes
the *shape* of every op (trial sizes, dimensions, factor counts) and lets
the seed choose the rational content, so that the work per round stays
comparable from seed to seed while the inputs differ.
"""
from __future__ import annotations

import os
import random
import shutil
from typing import NamedTuple, Optional

FUZZ_TRIALS = 5
FUZZ_MAX_DIM = 12
# Trial sizes ("caps": half-dimensions) of the five trials of one fuzz op,
# in suite order: three double-product trials (the second one disguised),
# then two Kähler trials of dimension at most twice the cap.  These shapes
# were picked because op cost varies little between seeds of one shape
# (coefficient of variation 5-11 %, against 20 % or more for most shapes).
# Tiny, mid and large ops come in the ratio 3:14:3, so the median op is
# the middle one of 28 mid ops.
FUZZ_TINY, FUZZ_MID, FUZZ_LARGE = (1, 1, 1, 1, 1), (2, 2, 3, 2, 2), (2, 3, 4, 1, 1)
FUZZ_ROUND = ((FUZZ_MID, FUZZ_TINY, FUZZ_MID, FUZZ_MID, FUZZ_LARGE, FUZZ_MID, FUZZ_MID)
              + (FUZZ_MID, FUZZ_TINY, FUZZ_MID, FUZZ_MID, FUZZ_LARGE, FUZZ_MID)
              + (FUZZ_MID, FUZZ_MID, FUZZ_TINY, FUZZ_MID, FUZZ_MID, FUZZ_LARGE, FUZZ_MID)) * 2
# A tiny fixed op (every trial at cap 1) whose Kähler trials reach the
# idempotent splitting, so the warm-up pays the lazy sympy import as the
# other workloads' warm-ups do.
FUZZ_WARMUP_SEED = 359

# (curved planes n, flat pairs s, generator max_dim) of each generated
# Kähler input: four of one shape at dim 8, so the median op is the middle
# of four like ones, then one each at dim 10 and 12.
KAHLER_SHAPES = ((2, 2, 8),) * 4 + ((3, 2, 10), (3, 3, 12))
# The bundled fixtures and the block models tools/gen_fixtures.py builds
# them from: r^2 of each curved plane, descending.
KAHLER_FIXTURES = (("kahler_two_blocks.json", ("1", "1")),
                   ("kahler_two_blocks_scaled.json", ("4", "1")))

CHECK_FIXTURES = ("abelian_r4.json", "aff_c_j1.json", "aff_c_j2.json",
                  "kahler_two_blocks.json", "kahler_two_blocks_scaled.json",
                  "nilpotent_step3.json")
CHECK_SPARSE_HALF_DIMS = (4, 5, 6)


class Op(NamedTuple):
    name: str
    argv: tuple
    report: Optional[str]   # file the op writes, if any
    check: tuple            # verify.<check[0]>(stdout, report text, *check[1:])


def _suite_caps(seed, trials=FUZZ_TRIALS, max_dim=FUZZ_MAX_DIM):
    """Trial caps theorem_suite draws for `seed` (mirrors its draw order)."""
    rng = random.Random(seed)
    half = max(1, min(6, max_dim // 2))
    caps = []
    for _ in range(trials):
        caps.append(1 + min(rng.randrange(half), rng.randrange(half)))
        rng.randrange(2 ** 32)          # the trial's instance seed
    return tuple(caps)


def _kahler_shape(seed, max_dim):
    """(n, s) random_kahler_instance draws for `seed` (mirrors its first draws)."""
    rng = random.Random(seed)
    half = max(1, min(6, max_dim // 2))
    n = rng.randint(0, min(4, half))
    return n, rng.randint(0 if n else 1, half - n)


def _fuzz_op(name, seed, report):
    argv = ("fuzz", "--seed", str(seed), "--trials", str(FUZZ_TRIALS),
            "--max-dim", str(FUZZ_MAX_DIM), "--report", report)
    return Op(name, argv, report, ("check_fuzz", seed, FUZZ_TRIALS))


def fuzz_pick(seed):
    """The fuzz seed of every op of the round."""
    rng = random.Random("fuzz-%d" % seed)
    picks = []
    for caps in FUZZ_ROUND:
        while True:
            s = rng.randrange(2 ** 31)
            if s not in picks and _suite_caps(s) == caps:
                break
        picks.append(s)
    return picks


def fuzz_build(picks, workdir, fixtures):
    ops = [_fuzz_op("fuzz-%02d" % ix, s, os.path.join(workdir, "fuzz-%02d.json" % ix))
           for ix, s in enumerate(picks)]
    warmup = _fuzz_op("fuzz-warmup", FUZZ_WARMUP_SEED, os.path.join(workdir, "warmup.json"))
    return ops, warmup


def _write_json(path, data):
    from abelianj import serialize
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize.emit(data))


def _kahler_op(name, inst_path, norms, workdir):
    report = os.path.join(workdir, name + ".report.json")
    return Op(name, ("decompose-kahler", "--instance", inst_path, "--report", report),
              report, ("check_kahler", inst_path, norms))


def kahler_pick(seed):
    """(instance seed, n, s, max_dim) of every generated input."""
    rng = random.Random("kahler-%d" % seed)
    picks = []
    for n, s, max_dim in KAHLER_SHAPES:
        while True:
            inst_seed = rng.randrange(2 ** 31)
            if _kahler_shape(inst_seed, max_dim) == (n, s):
                break
        picks.append((inst_seed, n, s, max_dim))
    return picks


def kahler_build(picks, workdir, fixtures):
    from abelianj import lab, serialize
    ops = []
    for name, norms in KAHLER_FIXTURES:
        path = os.path.join(workdir, name)
        shutil.copyfile(os.path.join(fixtures, name), path)
        ops.append(_kahler_op("kahler-" + name[:-5], path, norms, workdir))
    for ix, (inst_seed, n, s, max_dim) in enumerate(picks):
        sample = lab.random_kahler_instance(inst_seed, max_dim)
        t = sample.triple
        if (sample.factor_count, t.algebra.dim) != (n, 2 * (n + s)):
            raise RuntimeError("random_kahler_instance(%d, %d) drew another shape"
                               % (inst_seed, max_dim))
        path = os.path.join(workdir, "kahler-%d.json" % ix)
        _write_json(path, serialize.instance_to_dict(t.algebra, t.j, t.metric))
        ops.append(_kahler_op("kahler-%d" % ix, path,
                              tuple(str(r) for r in sample.norm_squares), workdir))
    return ops, ops[0]


def _check_op(name, inst_path):
    return Op(name, ("check", inst_path, "--json"), None, ("check_check", inst_path))


def check_build(seed, workdir, fixtures):
    from abelianj import lab, serialize
    from abelianj.constructions import double_product
    from abelianj.hermitian import InnerProduct
    ops = []
    for name in CHECK_FIXTURES:
        path = os.path.join(workdir, name)
        shutil.copyfile(os.path.join(fixtures, name), path)
        ops.append(_check_op("check-" + name[:-5], path))
    for half in CHECK_SPARSE_HALF_DIMS:
        rng = random.Random("check-%d-%d" % (seed, half))
        dp = double_product(*lab.random_pair(rng, half, "diagonal-pair"))
        # diagonal and J-compatible: J swaps e_i and e_{half+i} up to sign
        diag = [rng.randint(1, 4) for _ in range(half)]
        metric = InnerProduct.diagonal(diag + diag)
        path = os.path.join(workdir, "sparse-%d.json" % (2 * half))
        _write_json(path, serialize.instance_to_dict(dp.algebra, dp.j, metric))
        ops.append(_check_op("check-sparse-%d" % (2 * half), path))
    return ops, ops[3]


# workload -> (pick, build).  pick(seed) is the benchmark's own choice of
# inputs by rejection sampling, in pure Python, and is left out of setup_s;
# build(picks, workdir, fixtures) makes the input files through abelianj
# and returns (ops, warm-up op).
WORKLOADS = {"fuzz": (fuzz_pick, fuzz_build),
             "kahler": (kahler_pick, kahler_build),
             "check": (lambda seed: seed, check_build)}
