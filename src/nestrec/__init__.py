"""Slow solutions of nested recursions, two ways.

The package evaluates generalized nested recursions directly and, independently,
counts cells on labelled infinite trees; slow solutions are exactly where the
two mechanisms agree.  On top of that sit frequency sequences with closed forms,
pruning operations with their counting identities, superpositions, and an
exploration harness for parameter ranges where no tree is known.

Each name lives in one module (tree, recursion, families, frequency, pruning,
cli) and is imported from there, e.g. `from nestrec import tree`.
"""
