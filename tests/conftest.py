import os

# Pin BLAS pools before numpy's first import so benchmark timings in the
# acceptance suite are single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

try:
    from hypothesis import Phase, settings
except ImportError:  # the property suites skip themselves without hypothesis
    pass
else:
    # One profile for every property test: the same draws on every run, no
    # example database, no deadline, and no explain phase, which reruns a
    # failing example many times over to annotate its report.
    settings.register_profile("cfmw", deadline=None, derandomize=True, database=None,
                              phases=[p for p in Phase if p is not Phase.explain])
    settings.load_profile("cfmw")
