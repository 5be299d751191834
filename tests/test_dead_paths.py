"""Every function in the package is entered by some CLI command, bar a short
list kept on purpose. A function that no command reaches and that is not on
the list is a path to delete, or to give a user and add to the list."""

import json

# qualified name -> why it stays although no CLI command enters it
KEPT = {
    "coupling.mv_edit_demo": "a benchmark tracer target, read by name",
    "models.mv_view_marginal": "a test's exact single-view reference",
    "coupling.score_average_sample": "the score-averaging baseline of acceptance claim C9",
    "coupling._AveragedModel.__init__": "part of the C9 baseline",
    "coupling._AveragedModel.dim": "part of the C9 baseline",
    "coupling._AveragedModel.predict_epsilon": "part of the C9 baseline",
}

# Runs in a fresh interpreter, so calls made while the package is imported
# count too. It prints the package functions that no command entered.
_SCRIPT = r'''
import ast, contextlib, io, json, os, sys
from pathlib import Path

entered = set()


def _profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(_profile)
import coupled_sampler
from coupled_sampler.cli import main
from coupled_sampler.presets import load_preset

os.chdir(sys.argv[1])
readme_schedule = {"num_steps": 200, "beta_start": 1e-4, "beta_end": 0.115}
configs = {
    "sample": {"model": "bimodal-2d", "schedule": readme_schedule, "n": 64, "seed": 7,
               "svg": True},
    "couple": {"pair": "separated-pair", "schedule": readme_schedule,
               "coupling": {"lambda": 1.0}, "n": 64, "seed": 7, "svg": True},
    "sweep": {"pair": "separated-pair", "schedule": readme_schedule,
              "lambda_grid": [0.0, 0.5, 1.0, 2.0, 4.0], "n": 64, "seed": 7},
    "mv_couple": {"scene": "mv-triangle", "schedule": readme_schedule, "n": 16, "seed": 3,
                  "svg": True},
    "mv_sweep": {"scene": "mv-triangle", "schedule": readme_schedule,
                 "lambda_grid": [0.0, 1.0, 4.0], "n": 16, "seed": 3},
    "trajectory": {"model": "std-normal-2d", "schedule": readme_schedule, "n": 16, "seed": 5,
                   "sampler": {"kind": "deterministic", "record_trajectory": True,
                               "step_subset": [200, 100, 50, 1]}},
    "models": {"pair": {"model_a": load_preset("gauss-left"),
                        "model_b": load_preset("gauss-right")},
               "schedule": readme_schedule, "n": 16, "seed": 5,
               "coupling": {"lambda": 2.0, "guidance_scale_rule": "alpha_bar_prev"}},
}
runs = [["sample", "sample"], ["couple", "couple"], ["sweep", "sweep"],
        ["couple", "mv_couple"], ["sweep", "mv_sweep"], ["sample", "trajectory"],
        ["couple", "models"]]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for command, name in runs:
        Path(name + ".json").write_text(json.dumps(configs[name]))
        codes.append(main([command, "--config", name + ".json", "--out", name]))
    codes.append(main(["schedule", "build", "--num-steps", "200",
                       "--beta-start", "1e-4", "--beta-end", "0.115"]))
    codes.append(main(["verify"]))
sys.setprofile(None)
assert codes == [0] * len(codes), codes

seen = {(c.co_filename, c.co_firstlineno) for c in entered}
never = []


def walk(node, filename, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            walk(child, filename, prefix + child.name + ".")
        elif isinstance(child, ast.FunctionDef):
            decorators = [ast.unparse(d) for d in child.decorator_list]
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            if "abstractmethod" not in decorators and (filename, first) not in seen:
                never.append(prefix + child.name)
            walk(child, filename, prefix + child.name + ".")


for path in sorted(Path(coupled_sampler.__file__).parent.glob("*.py")):
    walk(ast.parse(path.read_text()), str(path), path.stem + ".")
print(json.dumps(never))
'''


def test_every_function_outside_the_kept_list_is_entered_by_a_command(tmp_path, fresh_python):
    code = f"import sys; sys.argv = ['-', {str(tmp_path)!r}]\n" + _SCRIPT
    never = json.loads(fresh_python(code).splitlines()[-1])
    assert sorted(never) == sorted(KEPT)
