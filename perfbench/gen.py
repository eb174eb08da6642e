"""Seeded input generator for the splitkit benchmark.

    python3 perfbench/gen.py --workload W --seed S --out DIR [--smoke]

Writes the inputs under DIR/inputs and the request schedule with the
expected answers to DIR/plan.json.  run.py starts it as a separate process,
so generation is never timed and its memory never counts towards the
runner's peak RSS.  The same workload, seed and size set give the same
bytes.

Expected answers come from the brute-force oracles for n <= 5 and from
reference.py (the benchmark's own code) otherwise.  Every generated family
has a planted answer (digraphic or not, split or not, at most f edits from
split); the generator stops with an error if the reference disagrees with
it, since that would be a fault in the benchmark itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

import reference as ref

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = {
    "check": ["check"],
    "partitions": ["partitions"],
    "matrix": ["matrix", "--extras"],
}
DENSITY = {"gnp05": 0.05, "gnp30": 0.3, "gnp70": 0.7}
LARGE_FAMILIES = ["gnp05", "gnp30", "gnp70", "planted", "flipped", "empty", "complete"]
SEQ_FAMILIES = LARGE_FAMILIES + ["nondigraphic"]
SIZES = {
    "seq-large": ((128, 256, 512), (12, 20, 30)),
    "repair-large": ((125, 250, 500), (10, 16, 24)),
    "batch-small": ((40, 16), (8, 6)),  # (largest sequence n, largest digraph n)
}
ORACLE_MAX_N = 5


# Digraph families, as arc lists on vertices 0..n-1.


def gnp(n, p, rng):
    return [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]


def planted(n, rng):
    """A random split digraph: forced and forbidden arcs of a random
    non-trivial quad partition, the free pairs filled with probability q."""
    role = [rng.randrange(4) for _ in range(n)]  # 0 pm, 1 plus, 2 minus, 3 zero
    if n and (all(r == 1 for r in role) or all(r == 2 for r in role)):
        role[0] = 3
    q = rng.uniform(0.2, 0.8)
    arcs = []
    for u in range(n):
        sender = role[u] < 2
        silenced = role[u] >= 2
        for v in range(n):
            if u == v:
                continue
            if sender and role[v] in (0, 2):
                arcs.append((u, v))
            elif silenced and role[v] in (1, 3):
                continue
            elif rng.random() < q:
                arcs.append((u, v))
    return arcs


def flip(n, arcs, flips, rng):
    """Toggle ``flips`` distinct ordered pairs; the result is at most that
    many edits from the split input."""
    present = set(arcs)
    slots = n * (n - 1)
    chosen = set()
    while len(chosen) < min(flips, slots):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            chosen.add((u, v))
    return sorted(present ^ chosen)


def digraph(family, n, rng):
    """(arcs, flips) for one digraph family."""
    if family in DENSITY:
        return gnp(n, DENSITY[family], rng), 0
    if family == "planted":
        return planted(n, rng), 0
    if family in ("flipped", "near_split"):
        flips = max(2, n // 100) if family == "flipped" else 1 + rng.randrange(2)
        return flip(n, planted(n, rng), flips, rng), flips
    if family == "empty":
        return [], 0
    if family == "complete":
        return [(u, v) for u in range(n) for v in range(n) if u != v], 0
    raise ValueError(family)


def relabel(pairs, rng):
    pairs = list(pairs)
    rng.shuffle(pairs)
    return pairs


# Pair-sequence families that no digraph realizes.


def nondigraphic(n, rng):
    """Balanced, in range, not digraphic: vertex a needs all n-1 others as
    out-neighbours but vertex b has in-degree 0."""
    if n == 2:
        return [(1, 1), (0, 0)]
    a, b = 0, 1
    arcs = [(u, v) for u, v in gnp(n, 0.3, rng) if u not in (a, b) and v != b]
    arcs += [(a, v) for v in range(2, n)]
    pairs = [list(p) for p in ref.degrees(n, arcs)]
    pairs[a][0] += 1
    pairs[rng.randrange(2, n)][1] += 1  # in-degree <= n-2 before: b sends nothing
    return relabel(map(tuple, pairs), rng)


def pair_family(family, n, rng):
    """(pairs, digraphic) for one batch-small pair family."""
    if family == "nondigraphic":
        return nondigraphic(n, rng), False
    p = (0.05, 0.3, 0.7)[n % 3]
    if family == "split":
        return ref.degrees(n, planted(n, rng)), True
    pairs = [list(x) for x in ref.degrees(n, gnp(n, p, rng))]
    v = rng.randrange(n)
    if family == "unbalanced":
        pairs[v][0] += 1 if pairs[v][0] < n - 1 else -1
    elif family == "out_of_range":
        pairs[v][0] = n
    return [tuple(x) for x in pairs], family == "gnp"


def undirected_family(family, n, rng):
    """(degrees, edges or None, graphic) for one undirected family."""
    if family == "split":
        clique = [v for v in range(n) if rng.random() < 0.4]
        inside = set(clique)
        q = rng.uniform(0.2, 0.8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u in inside and v in inside)
                 or ((u in inside) != (v in inside) and rng.random() < q)]
    else:
        p = (0.05, 0.3, 0.7)[n % 3]
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    if family == "nongraphic":
        # Vertex a needs all n-1 others as neighbours, but b has degree 0.
        a, b = 0, 1
        edges = [(u, v) for u, v in edges if b not in (u, v) and a not in (u, v)]
        edges += [(a, v) for v in range(2, n)]
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    if family == "nongraphic":
        deg[a] += 1
        deg[rng.randrange(2, n)] += 1
        return relabel(deg, rng), None, False
    if family == "odd":
        v = rng.randrange(n)
        deg[v] += 1 if deg[v] < n - 1 else -1
        return deg, None, False
    return deg, edges, True


# Workloads.


def batch_small(seed, smoke):
    max_seq, max_dg = SIZES["batch-small"][1 if smoke else 0]
    pair_fams = ["gnp", "split", "unbalanced", "out_of_range", "nondigraphic"]
    und_fams = ["gnp", "split", "odd", "nongraphic"]
    dg_fams = ["gnp", "split", "near_split"]
    lowest = {"unbalanced": 2, "nondigraphic": 2, "odd": 2, "nongraphic": 3}
    items = []
    for kind, families, top in (
        ("pairs", pair_fams, max_seq),
        ("undirected", und_fams, max_seq),
        ("digraph", dg_fams, max_dg),
    ):
        for family in families:
            for n in range(lowest.get(family, 1), top + 1):
                rng = random.Random(f"batch-small:{seed}:{kind}:{family}:{n}")
                items.append(small_item(kind, family, n, rng))
    inputs = {"items.json": json.dumps(
        [{k: it[k] for k in ("kind", "family", "n", "data")} for it in items]
    ).encode()}
    requests = [
        {"item": i, "kind": it["kind"], "label": it["kind"], "size": it["n"],
         "expect": it["expect"]}
        for i, it in enumerate(items)
    ]
    return inputs, requests


def small_item(kind, family, n, rng):
    if kind == "pairs":
        pairs, digraphic = pair_family(family, n, rng)
        return {"kind": kind, "family": family, "n": n, "data": pairs,
                "expect": expect_pairs(pairs, digraphic, family)}
    if kind == "undirected":
        deg, edges, graphic = undirected_family(family, n, rng)
        return {"kind": kind, "family": family, "n": n, "data": deg,
                "expect": expect_undirected(deg, edges, graphic, family)}
    fam = {"gnp": ("gnp05", "gnp30", "gnp70")[n % 3], "split": "planted"}.get(family, family)
    arcs, flips = digraph(fam, n, rng)
    return {"kind": kind, "family": family, "n": n, "data": arcs,
            "expect": expect_digraph(n, arcs, flips, family)}


def expect_pairs(pairs, digraphic, family):
    n = len(pairs)
    scan = ref.Scan(pairs)
    require(scan.digraphic == digraphic, f"reference disagrees with family {family}")
    splittance = scan.splittance if digraphic else None
    if n <= ORACLE_MAX_N:
        from splitkit import IntegerPairSequence, brute_min_partition_measure, brute_realize

        seq = IntegerPairSequence(pairs)
        require((brute_realize(seq) is not None) == digraphic,
                f"brute_realize disagrees with family {family}")
        if digraphic:
            splittance = brute_min_partition_measure(seq)
            require(splittance == scan.splittance, "brute splittance disagrees")
    if not digraphic:
        return {"digraphic": False}
    check_planted(family, splittance, 0)
    parts = [[sorted(b) for b in scan.partition(k, l)] for k, l in scan.zeros]
    return {"digraphic": True, "split": splittance == 0,
            "splittance": splittance, "partitions": parts}


def expect_undirected(deg, edges, graphic, family):
    if not graphic:
        return {"graphic": False}
    seq = ref.undirected_sequence(deg)
    splittance = min(seq)
    require(splittance.denominator == 1, "graphic sequence with a half-integer")
    splittance = int(splittance)
    if len(deg) <= 10:
        brute = ref.brute_undirected_splittance(len(deg), edges)
        require(brute == splittance, "brute undirected splittance disagrees")
    if family == "split":
        require(splittance == 0, "planted split graph has splittance > 0")
    return {"graphic": True, "splittance": splittance, "split": splittance == 0,
            "durfee": ref.corrected_durfee(deg),
            "sequence": [[f.numerator, f.denominator] for f in seq]}


def expect_digraph(n, arcs, flips, family):
    splittance = ref.Scan(ref.degrees(n, arcs)).splittance
    if n <= ORACLE_MAX_N:
        from splitkit import Digraph, EnumerationBudget, brute_splittance

        brute = brute_splittance(Digraph(n, arcs), EnumerationBudget(max_vertices=ORACLE_MAX_N))
        require(brute == splittance, "brute_splittance disagrees with the reference")
    check_planted(family, splittance, flips)
    return {"splittance": splittance}


def check_planted(family, splittance, flips):
    if family in ("planted", "split", "empty", "complete"):
        require(splittance == 0, f"{family} input has splittance {splittance}")
    if family in ("flipped", "near_split"):
        require(splittance <= flips, f"{flips} flips gave splittance {splittance}")


def seq_large(seed, smoke):
    small, mid, big = SIZES["seq-large"][1 if smoke else 0]
    # 24 requests at the small size, 14 of about equal cost at the middle
    # one (check and matrix on the realizable families) and 2 at the big
    # one: 40 a cycle, so that the median falls inside the small-size group
    # and the tail (ten above) inside the middle one, not on the edge
    # between two sizes or commands.
    plan = [(small, fam, cmd) for fam in SEQ_FAMILIES for cmd in COMMANDS]
    plan += [(mid, fam, cmd) for fam in LARGE_FAMILIES for cmd in ("check", "matrix")]
    plan += [(big, "flipped", "check"), (big, "empty", "partitions")]
    wanted = {}
    for n, fam, cmd in plan:
        wanted.setdefault((n, fam), set()).add(cmd)
    inputs, expected = {}, {}
    for (n, fam), cmds in sorted(wanted.items()):
        rng = random.Random(f"seq-large:{seed}:{fam}:{n}")
        if fam == "nondigraphic":
            pairs, flips, digraphic = nondigraphic(n, rng), 0, False
        else:
            arcs, flips = digraph(fam, n, rng)
            pairs, digraphic = relabel(ref.degrees(n, arcs), rng), True
        name = f"seq-{n}-{fam}.seq"
        inputs[name] = ("seq\n" + "".join(f"{o} {i}\n" for o, i in pairs)).encode()
        scan = ref.Scan(pairs, full="matrix" in cmds)
        require(scan.digraphic == digraphic, f"reference disagrees with family {fam}")
        if digraphic:
            check_planted(fam, scan.splittance, flips)
        for cmd in cmds:
            code, text = getattr(scan, f"{cmd}_text")(digraphic)
            expected[name, cmd] = {
                "exit": code,
                "stdout_sha256": hashlib.sha256(text.encode()).hexdigest(),
                "family": fam,
                "flips": flips,
            }
    requests = [
        {"kind": "cli", "label": cmd, "size": n, "input": f"seq-{n}-{fam}.seq",
         "argv": COMMANDS[cmd], "expect": expected[f"seq-{n}-{fam}.seq", cmd]}
        for n, fam, cmd in plan
    ]
    return inputs, requests


def repair_large(seed, smoke):
    inputs, requests = {}, []
    # Fewer copies of the larger sizes: 49 requests a cycle, so the tail
    # has ten above p79, and the biggest inputs do not swamp the cycle.
    sizes = SIZES["repair-large"][1 if smoke else 0]
    for n, copies in zip(sizes, (4, 2, 1)):
        for fam in LARGE_FAMILIES * copies:
            copy = sum(1 for r in requests if r["size"] == n and r["expect"]["family"] == fam)
            rng = random.Random(f"repair-large:{seed}:{fam}:{n}:{copy}")
            arcs, flips = digraph(fam, n, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            arcs = sorted((perm[u], perm[v]) for u, v in arcs)
            name = f"dg-{n}-{fam}-{copy}.digraph"
            inputs[name] = (
                f"digraph {n}\n" + "".join(f"{u + 1} {v + 1}\n" for u, v in arcs)
            ).encode()
            splittance = ref.Scan(ref.degrees(n, arcs)).splittance
            check_planted(fam, splittance, flips)
            requests.append(
                {"kind": "cli", "label": "repair", "size": n, "input": name,
                 "argv": ["repair"],
                 "expect": {"splittance": splittance, "family": fam, "flips": flips}}
            )
    return inputs, requests


WORKLOADS = {"batch-small": batch_small, "seq-large": seq_large, "repair-large": repair_large}


def require(condition, message):
    if not condition:
        raise SystemExit(f"generator: {message}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for the self-test")
    args = parser.parse_args(argv)

    inputs, requests = WORKLOADS[args.workload](args.seed, args.smoke)
    random.Random(f"{args.workload}:{args.seed}:order").shuffle(requests)
    for i, req in enumerate(requests):
        req["id"] = i

    out = Path(args.out)
    (out / "inputs").mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for name in sorted(inputs):
        (out / "inputs" / name).write_bytes(inputs[name])
        digest.update(name.encode() + b"\0" + hashlib.sha256(inputs[name]).digest())
    plan = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "inputs_sha256": digest.hexdigest(),
        "input_sha256": {name: hashlib.sha256(data).hexdigest() for name, data in inputs.items()},
        "requests": requests,
    }
    (out / "plan.json").write_text(json.dumps(plan))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    main()
