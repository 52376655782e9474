#!/usr/bin/env bash
# Run the CLI verbs of the signfem checkout SRC on the section 5.1 and 5.2
# materials at patch radius 0.3 and 0.05, and record under OUT, per run:
# every output file, stdout and stderr with the run's output directory
# masked as <OUT>, and the exit code.  Two trees made from two checkouts
# compare with `diff -r`: no difference means every file, every printed line
# and every exit code is byte-identical.  tools/cli_compare.py compares them
# under the tolerances of ROADMAP aim 2 instead, for a change that rounds
# differently.
#
#   tools/cli_outputs.sh SRC OUT
#
# SRC is a checkout (the package is imported from SRC/src); OUT must not
# exist yet.  The 48 runs take about half a minute on two cores (30-36 s).
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 2
fi
src=$(cd "$1" && pwd)/src
out=$2
if [ -e "$out" ]; then
    echo "$0: $out exists" >&2
    exit 2
fi
mkdir -p "$out"
out=$(cd "$out" && pwd)

# the test configs of tests/test_cli.py: section 5.1 (cfg51) and 5.2 (cfg52)
cfg51='[domain]
kind = reference
patch_radius = RADIUS
h_coarse = 0.2

[material]
mu_minus = 1/10
eps_minus = 10
omega_mu_sq = 2
omega_eps_sq = 2

[experiment]
lam = 1
levels = 3
source = 1,1'
cfg52=${cfg51/mu_minus = 1\/10/mu_minus = 10}
cfg52=${cfg52/omega_mu_sq = 2/omega_mu_sq = 4}

# name|arguments after the config: the ten verbs, spectrum on both test
# windows, export in both formats
runs=(
    "mesh-build|mesh build"
    "mesh-refine|mesh refine --levels 2"
    "mesh-check|mesh check --levels 2"
    "solve-source|solve source"
    "solve-scalar|solve scalar --levels 2"
    "eigen-converge|eigen converge --levels 2 --window 1.2,4/3 --shift 1.27"
    "eigen-spectrum-admissible|eigen spectrum --levels 2 --window 1.2,4/3 --shift 1.27"
    "eigen-spectrum-eps|eigen spectrum --levels 2 --window 4/3,100/51 --shift 1.6"
    "diagnose-infsup|diagnose infsup --levels 2"
    "diagnose-reflection|diagnose reflection --levels 2"
    "export-field-csv|export field --levels 2 --format csv"
    "export-field-vtk|export field --levels 2 --format vtk"
)

for material in cfg51 cfg52; do
    for radius in 0.3 0.05; do
        case_dir=$out/$material-r$radius
        mkdir -p "$case_dir"
        cfg=${!material}
        printf '%s\n' "${cfg/RADIUS/$radius}" > "$case_dir/config.cfg"
        for run in "${runs[@]}"; do
            name=${run%%|*}
            read -r -a args <<< "${run#*|}"
            dir=$case_dir/$name
            mkdir -p "$dir/files"
            status=0
            PYTHONPATH=$src python3 -m signfem "${args[@]}" \
                --config "$case_dir/config.cfg" --out "$dir/files" \
                > "$dir/stdout.raw" 2> "$dir/stderr.raw" || status=$?
            for stream in stdout stderr; do
                sed "s|$dir/files|<OUT>|g" "$dir/$stream.raw" > "$dir/$stream.txt"
                rm "$dir/$stream.raw"
            done
            echo "$status" > "$dir/exit.txt"
            echo "$material r=$radius $name: exit $status"
        done
    done
done
