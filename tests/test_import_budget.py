"""Import budget: scipy and networkx load only where they run.

Only the auto-tuner needs them: scipy for the Bayesian search's
posterior and expected improvement, networkx for the settings cache's
graph edit distance search between two different topologies and for
reading a saved cache.  The timing path (trainer, harness, campaign
worker) must load neither, and neither must the cluster runtime while
its tenants' topologies compare identical.  Each case runs in a fresh
interpreter, since ``sys.modules`` is process-wide.
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


def test_cluster_runtime_loads_no_networkx():
    # Every committed tenant is a 2-node job: their topologies compare
    # identical, so the settings cache never searches.
    loaded = _loaded_after("""
        from repro.cluster.runtime import three_job_scenario

        three_job_scenario(chaos=True).run()
    """)
    assert loaded["networkx"] is False


def test_tenants_of_two_shapes_load_networkx_for_the_search():
    loaded = _loaded_after("""
        import sys

        from repro.autotune import ParameterPoint, SettingsCache
        from repro.cluster.jobs import JobSpec
        from repro.cluster.runtime import ClusterConfig, ClusterRuntime
        from repro.models import get_model
        from repro.sim import Simulator, alibaba_v100_cluster

        cache = SettingsCache()
        cache.store("prior", get_model("vgg16"),
                    alibaba_v100_cluster(Simulator(), 24).topology_graph(),
                    ParameterPoint(3, 4e6, "ring"), 0.1)
        specs = [JobSpec(job_id="small", model="resnet50", num_nodes=2,
                         steps=4),
                 JobSpec(job_id="large", model="vgg16", num_nodes=3,
                         steps=4, batch_size=48)]
        assert "networkx" not in sys.modules
        result = ClusterRuntime(
            specs, config=ClusterConfig(warm_start_max_distance=64.0),
            settings_cache=cache).run()
        # The labels the networkx-keyed cache gave this run.
        assert {job: record["warm_start"]
                for job, record in result.jobs.items()} == \
            {"small": "prior", "large": "prior"}
    """)
    assert loaded["networkx"] is True


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
