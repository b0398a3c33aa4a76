"""The benchmark's tracer (``perfbench/tracing.py``) wraps package
functions by name, so removing or renaming a hooked name breaks
``perfbench/run.py --trace 1``.  This installs the tracer in a fresh
interpreter, as a traced benchmark child does, and names any hook whose
target is gone.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CODE = """
import sys
import ordlab, ordlab.cli
import tracing

missing = []
for hook in tracing.HOOKS:
    owner = sys.modules.get("ordlab." + hook.module)
    cls_name, _, member = hook.attr.rpartition(".")
    target = getattr(owner, cls_name, None) if cls_name else owner
    if target is None or member not in vars(target):
        missing.append(hook.module + "." + hook.attr)
if missing:
    sys.exit("missing hooks: " + ", ".join(missing))
tracing.Tracer().install()
print(len(tracing.HOOKS))
"""


def test_benchmark_tracer_installs():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    out = subprocess.run([sys.executable, "-c", CODE], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) > 0  # hooks installed
