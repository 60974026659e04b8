import subprocess
import sys

from conftest import subprocess_env

DRAW = """
import random
from skelpot.randgen import (random_boundary_values, random_graph,
                             random_subharmonic)
rng = random.Random(3)
for _ in range(5):
    g = random_graph(rng, max_vertices=10, n_boundary=4)
    print(sorted(random_boundary_values(rng, g).items()))
    print(random_subharmonic(rng, g).to_json_dict())
"""


def _draw(hash_seed: str) -> str:
    env = subprocess_env()
    env["PYTHONHASHSEED"] = hash_seed
    out = subprocess.run([sys.executable, "-c", DRAW], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout


def test_draws_do_not_depend_on_hash_seed():
    """The same seed draws the same instances in every process."""
    assert _draw("1") == _draw("2")
