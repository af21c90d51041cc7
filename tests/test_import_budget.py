"""Import budget: scipy and networkx load only where they run.

Only the auto-tuner needs them: scipy for the Bayesian search's
posterior and expected improvement, networkx for the settings cache's
graph edit distance and the cluster runtime's admission.  The timing
path (trainer, harness, campaign worker) must load neither.  Each case
runs in a fresh interpreter, since ``sys.modules`` is process-wide.
"""

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _loaded_after(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; report which heavy
    packages ``sys.modules`` holds when it ends."""
    script = textwrap.dedent(code) + textwrap.dedent("""
        import json, sys
        print(json.dumps({name: name in sys.modules
                          for name in ("scipy", "networkx")}))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_timing_path_loads_neither_scipy_nor_networkx():
    loaded = _loaded_after("""
        import repro.campaign.worker as worker
        import repro.harness.experiments
        import repro.training.trainer

        context = worker.RunContext(attempt=1, spec_id="s", campaign_id=1)
        for backend in ("byteps", "aiacc"):
            worker.measure_runner({"model": "resnet50", "backend": backend,
                                   "gpus": 16, "iterations": 1}, context)
    """)
    assert loaded == {"scipy": False, "networkx": False}


def test_cluster_runtime_does_not_load_scipy():
    loaded = _loaded_after("""
        from repro.cluster.runtime import three_job_scenario

        three_job_scenario(chaos=True).run()
    """)
    assert loaded["scipy"] is False


def test_bayesian_search_loads_scipy_only_when_it_fits_the_surrogate():
    loaded = _loaded_after("""
        import sys

        from repro.autotune import BayesianOptimization, SearchSpace

        space = SearchSpace()
        bo = BayesianOptimization(space, seed=5)
        for cost in range(5):
            bo.observe(bo.propose(), float(cost))
        assert "scipy" not in sys.modules
        assert bo.propose() in space
    """)
    assert loaded["scipy"] is True
