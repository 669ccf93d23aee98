"""Seeded input documents for the benchmark workloads.

Each workload is a list of ``(label, text)`` pairs, where ``text`` is a
schema-valid motcalc input document (JSON) holding one motive:

* ``corpus``: the bundled ``motives/*.json`` files, read as they are.
* ``trivial_ladder``: trivial Galois group, r = s = n over an
  elliptic-curve pair with four named points on each side, plus
  torus-only documents (no abelian part) at the same kind of sizes.
  v, v* and psi are random small integers drawn from the seed.
* ``cyclic_relators``: a cyclic group of order n permuting X and Yv
  cyclically, with the relator g^n declared, a circulant psi, and
  constant v and v* (equivariance forces both).

Documents with End(A) larger than Q are left out: their Z1 is known to
be overestimated, so a recorded report for them would pin a wrong value.

Run as a script to write the documents of one workload as files::

    python3 perfbench/generate.py --workload trivial_ladder --seed 0 --out DIR
"""

import argparse
import glob
import json
import os
import random

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_GLOB = os.path.join(REPO_ROOT, "motives", "*.json")

MULT_BASIS = ["q1", "q2", "q3"]
POINT_COUNT = 4
ENTRY_RANGE = 3

# Sizes per workload.  A pass runs each document once, so these set the
# work in one pass: well under a second for analyze plus check, so that
# a run holds enough passes for a steady median on a noisy 2-core host.
TRIVIAL_ABELIAN_RANKS = (2, 3, 4)
TRIVIAL_TORUS_RANKS = (3, 4)
# Order 4 is left out: one operation there takes about half a second, too
# long to find a quiet moment of the host in (see README.md); three
# documents of order 3 give the lattice layer the same kind of work.
CYCLIC_ORDERS = (2, 3, 3, 3)

ELLIPTIC_PAIR = [
    {"name": "E", "g": 1,
     "points": ["P%d" % (k + 1,) for k in range(POINT_COUNT)],
     "dual": "Estar"},
    {"name": "Estar", "g": 1,
     "points": ["Q%d" % (k + 1,) for k in range(POINT_COUNT)],
     "dual": "E"},
]


def _small(rng):
    return rng.randint(-ENTRY_RANGE, ENTRY_RANGE)


def _vector(rng, length):
    return [_small(rng) for _ in range(length)]


def _text(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def trivial_document(rng, name, n, abelian):
    """r = s = n with the trivial group; random v, v* and psi."""
    motive = {
        "name": name,
        "X_rank": n,
        "Yv_rank": n,
        "psi": [[_vector(rng, len(MULT_BASIS)) for _ in range(n)]
                for _ in range(n)],
    }
    doc = {"mult_basis": list(MULT_BASIS), "motives": [motive]}
    if abelian:
        doc["varieties"] = ELLIPTIC_PAIR
        motive["A"] = "E"
        motive["v"] = [_vector(rng, POINT_COUNT) for _ in range(n)]
        motive["vstar"] = [_vector(rng, POINT_COUNT) for _ in range(n)]
    return doc


def _cyclic_shift(n):
    """The permutation matrix sending e_i to e_(i+1 mod n)."""
    return [[1 if i == (j + 1) % n else 0 for j in range(n)]
            for i in range(n)]


def cyclic_document(rng, name, n):
    """C_n acting on X and Yv by the cyclic shift, circulant psi."""
    shift = _cyclic_shift(n)
    c = [_vector(rng, len(MULT_BASIS)) for _ in range(n)]
    motive = {
        "name": name,
        "X_rank": n,
        "Yv_rank": n,
        "X_action": [shift],
        "Yv_action": [shift],
        "A": "E",
        "v": [_vector(rng, POINT_COUNT)] * n,
        "vstar": [_vector(rng, POINT_COUNT)] * n,
        "psi": [[c[(j - i) % n] for j in range(n)] for i in range(n)],
    }
    return {
        "group": {"generators": 1, "relators": [[1] * n]},
        "mult_basis": list(MULT_BASIS),
        "varieties": ELLIPTIC_PAIR,
        "motives": [motive],
    }


def corpus_documents():
    docs = []
    for path in sorted(glob.glob(CORPUS_GLOB)):
        with open(path, "r", encoding="utf-8") as handle:
            docs.append((os.path.basename(path)[:-len(".json")],
                         handle.read()))
    if not docs:
        raise FileNotFoundError("no documents match %s" % (CORPUS_GLOB,))
    return docs


def documents(workload, seed):
    """The ``(label, text)`` pairs of one workload for one seed."""
    if workload == "corpus":
        return corpus_documents()
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "trivial_ladder":
        docs = [trivial_document(rng, "trivial_ab_%d_n%d" % (k, n), n, True)
                for k, n in enumerate(TRIVIAL_ABELIAN_RANKS)]
        docs += [trivial_document(rng, "trivial_torus_%d_n%d" % (k, n), n,
                                  False)
                 for k, n in enumerate(TRIVIAL_TORUS_RANKS)]
    elif workload == "cyclic_relators":
        docs = [cyclic_document(rng, "cyclic_%d_n%d" % (k, n), n)
                for k, n in enumerate(CYCLIC_ORDERS)]
    else:
        raise ValueError("unknown workload %r" % (workload,))
    return [(doc["motives"][0]["name"], _text(doc)) for doc in docs]


WORKLOADS = ("corpus", "trivial_ladder", "cyclic_relators")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True,
                        help="directory to write <label>.json files into")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for label, text in documents(args.workload, args.seed):
        with open(os.path.join(args.out, label + ".json"), "w",
                  encoding="utf-8") as handle:
            handle.write(text)


if __name__ == "__main__":
    main()
