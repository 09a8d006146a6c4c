"""Record the reference sweep outputs that every benchmark run is checked against.

    python3 perfbench/record_references.py

Runs each workload once at each of its run.SEED_POOL experiment seeds and writes
references.json. Record only at a commit whose outputs are known to be
right: later runs must reproduce these records, trials and failures exactly
and RMSE and root bound to a relative 1e-9.
"""

import json

import run


def main() -> None:
    pkg = run.load_package()
    workloads = {}
    for name, workload in run.WORKLOADS.items():
        seeds = {}
        for offset in range(run.SEED_POOL):
            exp_seed = run.experiment_seed(workload, offset)
            cfg = run.workload_config(pkg, workload, exp_seed)
            seeds[str(exp_seed)] = run.record_rows(pkg.harness.run_experiment(cfg))
        workloads[name] = {"preset": workload.preset, "trials": workload.trials,
                           "seeds": seeds}
    # One line per workload seed keeps the file small and its diffs readable.
    tables = ",\n".join(
        f' {json.dumps(name)}: {{"preset": {json.dumps(table["preset"])}, '
        f'"trials": {table["trials"]}, "seeds": {{\n'
        + ",\n".join(f"  {json.dumps(seed)}: {json.dumps(rows)}"
                      for seed, rows in table["seeds"].items())
        + "}}"
        for name, table in workloads.items())
    text = f'{{"commit": {json.dumps(run.git_commit())}, "workloads": {{\n{tables}}}}}\n'
    run.REFERENCES.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
