#!/usr/bin/env python3
"""Walk through the fold-model construction at n, by default the first n the
certificate is assembled for: print the universal double-row ring, the
addition of the coordinate row with the standard vector and its closed-form
result, and the elementary certificate carrying that closed form back to the
coordinate row, one generator at a time.  The certificate starts from the
closed form, not from the addition, which only ``fold_model_row`` runs.

Usage: python3 scripts/fold_demo.py [n]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from umrow.fields import RATIONALS
from umrow.quadrics import FOLD_CERTIFICATE_FIRST_N, fold_model_certificate, fold_model_row, vtilde_ring
from umrow.rows import ElementaryWord, apply_word_entries, verify_certificate


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else FOLD_CERTIFICATE_FIRST_N
    vt = vtilde_ring(n, RATIONALS)
    print(f"universal ring: {len(vt.algebra.variables)} variables, "
          f"{len(vt.algebra.relations)} relations")
    for rel in vt.algebra.relations:
        print(f"  0 = {rel}")

    fold = fold_model_row(vt)
    print("\nfold-model row (coordinate row + standard vector):")
    for e in fold.row.entries:
        print(f"  {e}")
    print("\nlength-2 witness row and splitting:")
    print(f"  row:       {[str(e) for e in fold.witness.row.entries]}")
    print(f"  splitting: {[str(e) for e in fold.witness.entries]}")

    cert = fold_model_certificate(vt)
    print(f"\ncertificate: {len(cert.word.gens)} elementary generators")
    entries = list(cert.source.entries)
    for k, g in enumerate(cert.word.gens):
        entries = apply_word_entries(entries, ElementaryWord(cert.word.n, (g,)))
        print(f"  {k:>2}: e({g.i + 1},{g.j + 1}; {g.lam})")
    print(f"\nfinal row: {[str(e) for e in entries]}")
    print(f"raw replay verifies: {verify_certificate(cert)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
