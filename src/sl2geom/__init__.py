"""Verification-grade geometry of SL(2,R) under the metric family g[nu]:
the group and its chart, the frame connection and curvature, immersed
surface machinery, the classical surface families, and Gauss-map
classification, every closed form paired with an independent check.

The package re-exports nothing and imports none of its modules: import
the module you need.  Each module imports only modules of a lower layer,
in the order core < metric < surface < {families, gaussmap} < suites < cli."""
