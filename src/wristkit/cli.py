"""Command-line front end for the design/analysis pipeline.

Subcommands:

* ``simulate`` -- sweep the arm model and write torque-curve CSVs;
* ``fit``      -- pick the worst-case curve, fit a line, derive and
                  catalog-match the spring; writes a JSON design report;
* ``analyze``  -- ingest a directory of trial logs, compute metrics and
                  statistics, write the study report JSON and plot CSVs;
* ``report``   -- re-render the plot CSVs from an existing report JSON.

Exit codes: 0 success, 1 usage error, 2 data error, 3 config error.
"""

import math
import os
import re
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

from . import fileio, springs, trials
from .biomech import ArmPosture, sweep_torque_curve
from .config import load_config
from .errors import ConfigError, DataError, DomainError
from .transmission import pretension_torque

MAX_SAMPLES = 1_000_000  # simulate --samples: refused above it, before numpy allocates

# The command line, stated once: each command's help, then its arguments (a flag, or a
# positional's dest) with the keywords build_parser passes to add_argument.
_COMMANDS = {
    "simulate": ("sweep the arm model into torque-curve CSVs", {
        "--posture": dict(default="all", choices=["P1", "P2", "P3", "all", "custom"]),
        "--samples": dict(type=int, default=50, help=f"samples across the motion range, "
                                                     f"2 to {MAX_SAMPLES:,} (default 50)"),
        "--out": dict(required=True, metavar="PATH",
                      help="output CSV (or directory when --posture all)"),
        **{flag: dict(type=float, help=f"custom posture only; a negative value in exponent "
                                       f"form is written {flag}=-1e1")
           for flag in ("--shoulder-deg", "--elbow-deg", "--pronation-deg")}}),
    "fit": ("fit curves and size the spring", {
        "curves": dict(nargs="+", metavar="CURVE_CSV"),
        "--catalog": dict(metavar="PATH", help="spring catalog CSV (overrides config)"),
        "--out": dict(metavar="PATH", help="design report JSON (default: stdout)")}),
    "analyze": ("analyze a directory of trial logs", {
        "trial_dir": dict(metavar="TRIAL_DIR"),
        "--out": dict(default="report.json", metavar="PATH",
                      help="study report JSON (default: report.json)"),
        "--plots-dir": dict(metavar="DIR",
                            help="where to write plot CSVs (default: alongside --out)")}),
    "report": ("re-render plot CSVs from a report JSON", {
        "report": dict(metavar="REPORT_JSON"),
        "--plots-dir": dict(metavar="DIR",
                            help="where to write plot CSVs (default: alongside the report)")}),
}


def build_parser():
    """argparse's parser for the table above, for help, usage errors and other spellings."""
    import argparse  # here, so that a plain command line loads neither it nor locale

    class _Parser(argparse.ArgumentParser):
        """argparse exits 2 on usage errors; our contract reserves 2 for data."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="wristkit", description=__doc__.splitlines()[0])
    parser.add_argument("--config", metavar="PATH",
                        help="toolkit config file (INI); defaults apply when omitted")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for argument, keywords in arguments.items():
            command.add_argument(argument, **keywords)
        command.set_defaults(func=globals()[f"cmd_{name}"])  # the module's cmd_* as it is now
    return parser


# A token argparse reads as a value: one not starting with "-", or a negative decimal.
_VALUE = re.compile(r"(?!-)|-\d+\Z|-\d*\.\d+\Z")


def _plain_args(argv):
    """The namespace argparse gives a plainly written command line, else None.

    Plain is ``[--config VALUE] COMMAND``, then the command's flags by their full names,
    each with its value after it, and one run of positionals.  Anything else is left to
    argparse, so its messages and exit codes stay its own.
    """
    if not all(isinstance(token, str) for token in argv):
        return None
    config, argv = (argv[1], argv[2:]) if argv[1:] and argv[0] == "--config" else (None, argv)
    if config is not None and not _VALUE.match(config) or not argv or argv[0] not in _COMMANDS:
        return None
    arguments, given, run, i = _COMMANDS[argv[0]][1], {}, [], 1  # given: each flag's values
    while i < len(argv):
        if _VALUE.match(argv[i]) and (not run or run[-1] == i - 1):  # one run of positionals
            run.append(i)
            i += 1
        elif argv[i] in arguments and argv[i + 1:] and _VALUE.match(argv[i + 1]):
            given.setdefault(argv[i], []).append(argv[i + 1])
            i += 2
        else:
            return None
    args = {"config": config, "command": argv[0], "func": globals()[f"cmd_{argv[0]}"]}
    for argument, keywords in arguments.items():
        texts = given.get(argument, [])  # argparse converts each, and keeps the last
        if argument[0] != "-":  # the run: one value, or one or more for nargs "+"
            texts, run = [argv[i] for i in run], []
            if not texts or len(texts) > 1 and "nargs" not in keywords:
                return None
        try:
            values = [keywords.get("type", str)(text) for text in texts]
        except ValueError:
            return None
        if (keywords.get("required") and not values
                or any(value not in keywords.get("choices", [value]) for value in values)):
            return None
        args[argument.lstrip("-").replace("-", "_")] = (
            values if "nargs" in keywords else values[-1] if values else keywords.get("default"))
    return None if run else SimpleNamespace(**args)


def _curve_summary(curve) -> str:
    fit = springs.fit_linear(curve)
    return (f"{curve.posture_label or 'curve'}: peak |moment| "
            f"{curve.peak_abs_moment():.4g} N*m, slope {fit.slope:.4g} N*m/rad, "
            f"R^2 {fit.r_squared:.4g}")


def cmd_simulate(cfg, args) -> int:
    flags = {"--shoulder-deg": args.shoulder_deg, "--elbow-deg": args.elbow_deg,
             "--pronation-deg": args.pronation_deg}
    if args.posture == "custom":
        if None in flags.values():
            raise ConfigError("custom posture needs --shoulder-deg, --elbow-deg, "
                              "and --pronation-deg")
        for flag, value in flags.items():
            if not math.isfinite(value):
                raise ConfigError(f"{flag} must be finite, got {value}")
        selected = [ArmPosture(*(math.radians(a) for a in flags.values()), label="custom")]
    elif given := [flag for flag, value in flags.items() if value is not None]:
        raise ConfigError(f"{given[0]} needs --posture custom, got --posture {args.posture}")
    elif args.posture == "all":
        selected = list(cfg.postures.values())
    else:
        selected = [cfg.postures[args.posture]]
    if not 2 <= args.samples <= MAX_SAMPLES:
        raise ConfigError(f"--samples must be an integer in [2, {MAX_SAMPLES}], "
                          f"got {args.samples}")

    curves, summaries = [], []
    for posture in selected:
        try:  # a curve that is not finite or cannot be fitted writes nothing
            curves.append(sweep_torque_curve(cfg.segments, posture, cfg.motion, cfg.load,
                                             args.samples, cfg.gravity, cfg.convention))
            summaries.append(_curve_summary(curves[-1]))
        except DomainError as exc:
            raise DataError(f"{posture.label}: {exc}") from None
    paths = ([args.out] if len(curves) == 1
             else [os.path.join(args.out, f"{c.posture_label}.csv") for c in curves])
    for curve, path in zip(curves, paths):
        fileio.write_torque_curve(path, curve)
    for summary, path in zip(summaries, paths):
        print(f"{summary} -> {path}")
    if len(curves) > 1:
        worst = springs.worst_case_select(curves)
        print(f"worst case: {worst.posture_label} "
              f"(peak |moment| {worst.peak_abs_moment():.4g} N*m)")
    return 0


def cmd_fit(cfg, args) -> int:
    paths = {}  # curve label, its file's stem -> the one path given for it
    for path in args.curves:
        if paths.setdefault(label := Path(path).stem, path) != path:
            raise DataError(f"{fileio.path_name(path)}: curve label {label!r} already used by "
                            f"{fileio.path_name(paths[label])}")
    worst = springs.worst_case_select(map(fileio.read_torque_curve, paths.values(), paths))
    catalog = cfg.catalog if args.catalog is None else fileio.read_spring_catalog(args.catalog)
    path = paths[worst.posture_label]
    try:  # no spring from the worst-case curve, or a warning made an error: that file's error
        with warnings.catch_warnings(record=True) as caught:  # warned again below, naming the file
            fit = springs.fit_linear(worst)
            spring = springs.derive_spring(fit, cfg.pre_wind)
            stiffness_nmm_per_deg = springs.stiffness_to_nmm_per_deg(spring.stiffness)
            selection = springs.catalog_match(stiffness_nmm_per_deg, catalog)
    except (DomainError, Warning) as exc:
        raise DataError(f"{path}: {exc}") from None
    for warning in caught:
        warnings.warn(f"{path}: {warning.message}", warning.category)

    def entry(e):
        return None if e is None else {"name": e.name, "stiffness_nmm_per_deg": e.stiffness}

    design = {
        "worst_case": worst.posture_label,
        "fit": {
            "slope_nm_per_rad": fit.slope,
            "intercept_nm": fit.intercept,
            "r_squared": fit.r_squared,
            "n_points": fit.n_points,
        },
        "spring": {
            "stiffness_nm_per_rad": spring.stiffness,
            "stiffness_nmm_per_deg": stiffness_nmm_per_deg,
            "neutral_angle_rad": spring.neutral_angle,
            "neutral_angle_deg": math.degrees(spring.neutral_angle),
        },
        "catalog": {
            "nominal": entry(selection.nominal),
            "softer": entry(selection.softer),
            "stiffer": entry(selection.stiffer),
        },
    }
    if spring.pre_wind is not None:
        design["spring"]["pre_wind_rad"] = spring.pre_wind
        design["spring"]["pretension_torque_nm"] = pretension_torque(spring)
    if args.out is not None:
        fileio.write_report(args.out, design)
        print(f"design report -> {args.out}")
    else:
        sys.stdout.write(fileio.render_report(design))
    return 0


def cmd_analyze(cfg, args) -> int:
    if not os.path.isdir(args.trial_dir):
        raise DataError(f"not a directory: {fileio.path_name(args.trial_dir)}")
    metrics, rejected, likert = [], [], ()
    first_file = {}  # trial meta -> the first file name that parsed to it
    for name in sorted(os.listdir(args.trial_dir)):  # names, not a path per file held at once
        path = os.path.join(args.trial_dir, name)
        if not os.path.isfile(path):
            continue
        try:  # a bad trial log or likert.csv is rejected; the study goes on
            if name == "likert.csv":
                likert = fileio.read_likert_responses(path)
                continue
            meta = fileio.parse_trial_filename(name)
            if meta is None:
                continue
            if meta in first_file:
                rejected.append((name, f"same condition and trial index as {first_file[meta]}"))
                continue
            first_file[meta] = name
            log = fileio.read_trial_log(path, meta)
            cleaned, fraction = trials.clean_interpolate(
                log, cfg.angle_bounds, cfg.max_interpolated_fraction)
            metrics.append(trials.trial_metrics(cleaned, cfg.gearing, fraction))
        except DataError as exc:
            rejected.append((name, str(exc)))
    if not metrics:
        for name, reason in rejected:
            print(f"rejected {name}: {reason}", file=sys.stderr)
        raise DataError(f"no usable trial logs in {args.trial_dir}")

    report = trials.aggregate_report(metrics, cfg.gearing, rejected, likert)
    fileio.write_report(args.out, report)
    plots_dir = Path(args.out).parent if args.plots_dir is None else args.plots_dir
    written = fileio.write_plot_csvs(report, plots_dir)
    print(f"{len(metrics)} trials analyzed, {len(rejected)} rejected "
          f"-> {args.out} + {len(written)} plot CSVs in {fileio.path_name(plots_dir)}")
    return 0


def cmd_report(cfg, args) -> int:
    report = fileio.read_report(args.report)
    plots_dir = Path(args.report).parent if args.plots_dir is None else args.plots_dir
    written = fileio.write_plot_csvs(report, plots_dir)
    print(f"re-rendered {len(written)} plot CSVs in {fileio.path_name(plots_dir)}")
    return 0


def _one_line_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or build_parser().parse_args(argv)
    # warnings print as one line each; whoever records them still sees them
    default_format = warnings.formatwarning
    warnings.formatwarning = _one_line_warning
    try:  # a warning raised as an error (python -W error) ends its stage
        try:
            cfg = load_config(args.config)
        except Warning as exc:
            raise ConfigError(exc) from None
        try:
            return args.func(cfg, args)
        except Warning as exc:
            raise DataError(exc) from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except (DataError, DomainError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":
    sys.exit(main())
