"""Fractional classification of documents into a two-level category scheme,
by journal membership and by the profile of citing documents, with tools to
compare the two: flow matrices, citation indicators, community detection,
force-directed layout, and a seeded synthetic corpus generator.

Each name is imported from the module that defines it, for example
``from citeclass.citer import classify_u1f08_all``; importing the package
alone loads no module of it.
"""

__version__ = "0.1.0"
