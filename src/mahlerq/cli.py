"""Command-line interface.

Subcommands: enumerate, series, pf, verify, batch, measure.  Exit codes
follow a fixed contract so the tool stays scriptable: 0 success, 2 for
usage or validation problems and for a file that cannot be read or
written, 3 for an internal-consistency fault (two independent computation
routes disagreed), 4 when an evaluation point falls outside the disk of
convergence.

Every command runs in a fresh process, so the module imports only the
standard-library modules the commands need.  ``csv`` is imported by
:func:`_csv_text`, which writes the ``--format csv`` tables of
``enumerate`` and ``verify``.  JSON output prints what ``json.dumps``
prints, byte for byte, without ``json``: a report through
:func:`report_json_text`, which fills one row template per row and joins
each column (the layout lives beside the reader's
:meth:`~mahlerq.inversion.IntegralityReport.from_json_dict`), and every
other value through the private writer :func:`_json_text`.  ``batch``
reads its cache back through :func:`_json_load`, which drives the C
scanner of ``_json`` that ``json`` itself wraps, so no command imports
``json`` (and with it ``re`` and ``enum``).  ``fractions`` loads ``re``,
``enum``, ``decimal`` and ``numbers``, so no module imports it at load
time: the library builds a ``Fraction`` only where a public value is one.
``verify`` computes and renders its report on ints, and ``measure`` runs on
int pairs end to end (its ``--psi`` is read with ``int()`` when it is a
plain ``p`` or ``p/q``), so neither loads ``fractions``.
The command line is parsed from one table, :data:`COMMANDS`, which also
gives the help text and every usage error.
``argparse`` is not used: importing it and building its parsers loads
``gettext``, ``locale``, ``shutil`` and the compression modules
``shutil`` pulls in, which every run would pay for.

``batch`` keeps one JSON report per model in its cache directory, written
by :func:`write_atomic` (a sibling temporary file, then ``os.replace``).
One loop, :func:`_write_entries`, writes them from at most one worker per
CPU the process may use (:func:`_usable_cpus`), worker i the entries
``pending[i::workers]`` in turn.  Worker 0 is the process itself; each
other worker is a child forked once that leaves through ``os._exit``, so
the cache is the only result channel, and every entry, new or cached, is
read back, rebuilt from its own columns and compared, byte for byte, with
what the writer gives the rebuilt report.  Each worker stops at its own
first failure and the others finish their shares; ``batch`` exits with
its own code, else the first failed child's (2 if a signal killed it).
"""

import io
import os
import sys
from types import SimpleNamespace

from . import __version__
from .inversion import IntegralityReport, _json_string, integrality_report
from .mirror import (
    _SERIES_KEYS,
    ConsistencyError,
    ConvergenceError,
    MirrorData,
    mahler_measure,
    pf2_applicable,
    pf_operator,
)
from .series import _coefficient_texts, _ratio_text, _reduced
from .weights import KVector, Model, aut_order, counts, enumerate_solutions

DEFAULT_CACHE = "~/.cache/mahlerq"


# ---------------------------------------------------------------------------
# command table and argument parsing
# ---------------------------------------------------------------------------

def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}")


def parse_model_args(args) -> Model:
    """Build a Model from --model k1,k2,.. or --weights k:w1,w2,.."""
    if args.model and args.weights:
        raise ValueError("give --model or --weights, not both")
    if args.weights:
        head, _, tail = args.weights.partition(":")
        if not tail:
            raise ValueError("--weights expects the form k:w1,w2,...")
        return Model.from_weights(int(head), _parse_int_list(tail))
    if args.model:
        return Model.from_kvector(KVector(_parse_int_list(args.model)))
    raise ValueError("a model is required (--model or --weights)")


REQUIRED = object()  # the default of an option that must be given
_FORMATS = ("table", "json", "csv")
_MODEL_OPTIONS = (
    ("--model", str, None, "k-vector, e.g. 2,3,6 (reciprocals sum to 1)"),
    ("--weights", str, None, "direct weights, e.g. 12:4,3,3,2 (sum w = k)"),
)

# The one declaration of every command and option: parsing, help and usage
# errors all read it.  command -> (summary, options); an option is
# (flag, type, default, help), its type int, str or a tuple of the values
# it accepts, its default REQUIRED when it must be given.
COMMANDS = {
    "enumerate": ("list weight systems for a dimension", (
        ("--n", int, REQUIRED, ""),
        ("--format", _FORMATS, "table", ""),
    )),
    "series": ("print one series of the model pipeline", _MODEL_OPTIONS + (
        ("--order", int, REQUIRED, ""),
        ("--which", _SERIES_KEYS, "Q", ""),
        ("--format", _FORMATS, "table", ""),
    )),
    "pf": ("derive the Picard-Fuchs operator parameters", _MODEL_OPTIONS + (
        ("--format", ("table", "json"), "table", ""),
    )),
    "verify": ("integrality report for one model", _MODEL_OPTIONS + (
        ("--order", int, REQUIRED, ""),
        ("--format", _FORMATS, "table", ""),
        ("--out", str, None, "also write the JSON report to this path"),
    )),
    "batch": ("verify every weight system of a dimension", (
        ("--n", int, REQUIRED, ""),
        ("--order", int, REQUIRED, ""),
        ("--jobs", int, 1, ""),
        ("--cache", str, None,
         f"report cache directory (default $MAHLER_CACHE or {DEFAULT_CACHE})"),
    )),
    "measure": ("numeric logarithmic Mahler measure", _MODEL_OPTIONS + (
        ("--psi", str, REQUIRED, "positive rational, e.g. 2 or 5/2"),
        ("--order", int, 32, ""),
    )),
}
_HELP_FLAGS = ("-h", "--help")


def _columns(rows: list[tuple[str, str]]) -> list[str]:
    width = max(len(left) for left, _ in rows)
    return [f"  {left.ljust(width)}  {right}".rstrip() for left, right in rows]


def program_help() -> str:
    return "\n".join([
        f"usage: mahlerq [-h] [--version] {{{','.join(COMMANDS)}}} ...",
        "",
        "Exact series engine for Mahler-measure variations and"
        " mirror-map integrality tables",
        "",
        "commands:",
        *_columns([(name, summary) for name, (summary, _) in COMMANDS.items()]),
        "",
        "options:",
        *_columns([("-h, --help", "show this help and exit"),
                   ("--version", "print the version and exit")]),
        "",
        "Each command takes --opt value or --opt=value; 'mahlerq <command> -h'"
        " lists its options.",
    ])


def command_help(command: str) -> str:
    summary, options = COMMANDS[command]
    usage, rows = [], [("-h, --help", "show this help and exit")]
    for flag, kind, default, text in options:
        value = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else flag[2:].upper()
        option = f"{flag} {value}"
        usage.append(option if default is REQUIRED else f"[{option}]")
        if default is REQUIRED:
            text += " (required)"
        elif default is not None:
            text += f" (default {default})"
        rows.append((option, text.lstrip()))
    return "\n".join([
        f"usage: mahlerq {command} [-h] {' '.join(usage)}",
        "",
        summary,
        "",
        "options:",
        *_columns(rows),
    ])


def _convert(command: str, flag: str, kind, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"{command}: {flag} expects an integer, got {text!r}") from None
    if kind is not str and text not in kind:
        raise ValueError(
            f"{command}: {flag} must be one of {', '.join(kind)}, got {text!r}"
        )
    return text


def parse_args(argv: list[str]):
    """The command and option values of ``argv`` as attributes, or the help
    or version text that ``argv`` asks for.

    Options are ``--opt value`` or ``--opt=value``, the last one given wins,
    and only whole option names are accepted.  A usage error raises
    ``ValueError("<command>: <cause>")``.
    """
    if not argv:
        raise ValueError(f"mahlerq: a command is required: {', '.join(COMMANDS)}")
    command, tokens = argv[0], argv[1:]
    if command in _HELP_FLAGS:
        return program_help()
    if command == "--version":
        return __version__
    if command not in COMMANDS:
        what = "option" if command.startswith("-") else "command"
        raise ValueError(
            f"mahlerq: unknown {what} {command!r}; choose from {', '.join(COMMANDS)}"
        )
    options = {flag: kind for flag, kind, _, _ in COMMANDS[command][1]}
    given = {}
    tokens = iter(tokens)
    for token in tokens:
        if token in _HELP_FLAGS:
            return command_help(command)
        flag, has_value, text = token.partition("=")
        if flag not in options:
            if token.startswith("-"):
                raise ValueError(f"{command}: unknown option {flag}")
            raise ValueError(f"{command}: unexpected argument {token!r}")
        if not has_value:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                raise ValueError(f"{command}: {flag} expects a value")
        given[flag] = _convert(command, flag, options[flag], text)
    values = {"command": command}
    for flag, _, default, _ in COMMANDS[command][1]:
        if default is REQUIRED and flag not in given:
            raise ValueError(f"{command}: {flag} is required")
        values[flag[2:]] = given.get(flag, default)
    return SimpleNamespace(**values)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _json_text(value, indent: int | None = None, level: int = 0) -> str:
    """``json.dumps(value, indent=indent)``, byte for byte, for a value built
    from dicts with str keys, lists, str, int, bool and None.

    It saves the ``json`` import, which a command run once per process
    would pay for each time.
    """
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        items = [f"{_json_string(k)}: {_json_text(v, indent, level + 1)}"
                 for k, v in value.items()]
        opening, closing = "{", "}"
    elif isinstance(value, list):
        items = [_json_text(v, indent, level + 1) for v in value]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return opening + closing
    if indent is None:
        return opening + ", ".join(items) + closing
    inner = "\n" + " " * (indent * (level + 1))
    return f"{opening}{inner}{(',' + inner).join(items)}\n{' ' * (indent * level)}{closing}"


def _fmt_fraction_list(values) -> str:
    return "[" + ", ".join(map(str, values)) + "]"


def _csv_text(rows) -> str:
    """``rows`` as ``csv.writer`` writes them, less the last line break."""
    import csv  # only --format csv needs it

    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().rstrip("\n")


def render_enumerate(n: int, fmt: str) -> str:
    sols = enumerate_solutions(n)
    models = [Model.from_kvector(kv) for kv in sols]
    if fmt == "json":
        return _json_text([model.to_json_dict() for model in models], 2)
    if fmt == "csv":
        return _csv_text([["k", "lcm", "w", "aut"]] + [
            [str(kv), model.k, ",".join(map(str, model.w)), aut_order(kv)]
            for kv, model in zip(sols, models)
        ])
    lines = [
        f"k=({kv})  w=({','.join(map(str, model.w))})  lcm={model.k}  |Aut|={aut_order(kv)}"
        for kv, model in zip(sols, models)
    ]
    simple, weighted = counts(sols)
    lines.append(f"simple={simple} weighted={weighted}")
    return "\n".join(lines)


def render_series(model: Model, order: int, which: str, fmt: str) -> str:
    values = _coefficient_texts(MirrorData.build(model, order).series(which))
    if fmt == "json":
        return _json_text(values)
    if fmt == "csv":
        return "\n".join(f"{m},{v}" for m, v in enumerate(values))
    return "\n".join(values)


def render_pf(model: Model, fmt: str) -> str:
    ops = {form: pf_operator(model, form) for form in ("reduced", "local")}
    flag = pf2_applicable(model)
    if fmt == "json":
        payload = {
            "model": model.to_json_dict(),
            "pf2_applicable": flag,
        }
        for form, op in ops.items():
            payload[form] = {
                "C": str(op.constant),
                "a": [str(x) for x in op.a],
                "b": [str(x) for x in op.b],
            }
        return _json_text(payload, 2)
    lines = [f"model: {model.name} (k={model.k}, w=({','.join(map(str, model.w))}))"]
    for form, op in ops.items():
        lines.append(
            f"{form}: C={op.constant} "
            f"a={_fmt_fraction_list(op.a)} b={_fmt_fraction_list(op.b)}"
        )
    lines.append(f"pf2_applicable: {'true' if flag else 'false'}")
    return "\n".join(lines)


def _row_flags(row: dict) -> str:
    flags = [key for key in ("b", "bhat", "c", "chat") if not row[f"{key}_integer"]]
    return ";".join(flags) if flags else "-"


def _report_cells(report: IntegralityReport) -> list[list[str]]:
    """The cells of the csv and table renderings, one row per m."""
    return [
        [
            str(row["m"]),
            row["b"],
            row["bhat"],
            row["c"],
            row["chat"],
            row["b_over_m"],
            row["chat_over_m"],
            _row_flags(row),
        ]
        for row in report.rows()
    ]


def render_report_csv(report: IntegralityReport) -> str:
    header = ["m", "b", "bhat", "c", "chat", "b_over_m", "chat_over_m", "flags"]
    return _csv_text([header] + _report_cells(report))


def render_report_table(report: IntegralityReport) -> str:
    header = ["m", "b", "bhat", "c", "chat", "b/m", "chat/m", "flags"]
    rows = _report_cells(report)
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(x.rjust(w) for x, w in zip(r, widths)))
    checks = " ".join(
        f"{key}={'true' if val else 'false'}" for key, val in report.checks.items()
    )
    lines.append(f"checks: {checks}")
    return "\n".join(lines)


def report_json_text(report: IntegralityReport) -> str:
    """The report's JSON text, which ``verify`` prints and writes and
    ``batch`` writes and compares each cache entry with."""
    return report._render()


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def cache_path(cache_dir: str, model: Model, order: int) -> str:
    safe = model.name.replace(",", "-").replace(":", "_")
    return os.path.join(cache_dir, f"{safe}__order{order}__v{__version__}.json")


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a sibling temporary file and a rename.

    Readers see the old file or the whole new one, never a partial write.
    The temporary name carries the process id, and O_EXCL refuses to reuse
    a file that is already there; the file is created with mode 0600.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _usable_cpus() -> list[int]:
    """The CPUs this process may run on, in order: its affinity mask where
    ``os`` can read one, else CPUs 0..cpu_count-1."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def batch_workers(jobs: int, pending: int) -> int:
    """Worker processes for ``pending`` reports: at most ``jobs``, one per CPU
    this process may use (not per CPU installed) and one per report; one
    (this process) where ``os`` cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    return min(jobs, len(_usable_cpus()), pending)


def _batch_compute(model: Model, order: int) -> str:
    return report_json_text(integrality_report(model, order))


def _write_share(share: list[tuple[Model, str]], order: int) -> int:
    for model, path in share:
        write_atomic(path, _batch_compute(model, order))
    return 0


def _start_on(cpu: int, cpus: list[int]) -> None:
    """Move this process to ``cpu`` now, then allow it ``cpus`` again.

    A forked child starts on its parent's CPU and may stay there for its
    whole short life, so two workers would share one CPU.  Placing moves it
    at once; the restored mask leaves the scheduler free to move it later.
    Best effort: where ``os`` cannot set a mask or the kernel refuses one,
    the process runs where it is.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    for mask in ({cpu}, cpus):
        try:
            os.sched_setaffinity(0, mask)
        except OSError:
            pass


def _fork_worker(share: list[tuple[Model, str]], order: int, cpu: int,
                 cpus: list[int]) -> int:
    """Fork a child that starts on ``cpu`` (:func:`_start_on`), writes the
    entries of ``share`` in turn and stops at its first failure; returns its
    pid.

    The child always ends in ``os._exit``, so it never returns into the
    caller's stack, flushes the buffers it inherited or runs atexit hooks.
    Forking is safe because the command starts no threads.
    """
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        _start_on(cpu, cpus)
        code = _exit_code(_write_share, share, order)
        sys.stderr.flush()
    except BaseException:
        # Outside the exit-code contract: report it as the interpreter would.
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(code)


def _write_entries(pending: list[tuple[Model, str]], order: int, workers: int) -> int:
    """Write the ``pending`` entries from ``workers`` workers, worker i the
    entries ``pending[i::workers]`` in turn: worker 0 is this process, each
    other one a child forked for it, and with children worker i starts on
    the i-th CPU of :func:`_usable_cpus`.  One worker forks and places nothing.

    Each worker stops at its own first failure and the others finish their
    shares.  Returns this process's exit code if its share failed, else
    the exit code of the first child that failed, else 0.  The workers
    write their entries through :func:`report_json_text` and build no
    ``Fraction``, so they import neither ``json`` nor ``fractions``.
    """
    cpus = _usable_cpus()
    running: dict[int, list[tuple[Model, str]]] = {}  # pid -> its share
    failed = None  # (share, wait status) of the first failed child
    try:
        for i in range(1, workers):
            share = pending[i::workers]
            running[_fork_worker(share, order, cpus[i % len(cpus)], cpus)] = share
        if running:
            _start_on(cpus[0], cpus)
        code = _exit_code(_write_share, pending[::workers], order)
        while running:
            pid, status = os.wait()
            share = running.pop(pid)
            if status and failed is None:
                failed = (share, status)
    finally:
        for pid in running:
            os.waitpid(pid, 0)
    if code or failed is None:
        return code
    share, status = failed
    if os.WIFSIGNALED(status):
        for model, path in share:  # the first entry not written was in flight
            if not os.path.exists(path):
                break
        raise ValueError(
            f"batch worker for model {model.name} was killed by signal {os.WTERMSIG(status)}"
        )
    return os.waitstatus_to_exitcode(status)


_JSON_SPACE = " \t\n\r"


def _refuse_number(text: str):
    raise ValueError(f"{text} is not an integer")


def _json_load(text: str):
    """The value of the JSON document ``text``, as ``json.loads`` reads it,
    except that a float, ``NaN`` or ``Infinity`` is refused.

    It drives the C scanner that ``json`` wraps, so it imports no Python
    source: ``json`` would load ``json.decoder``, ``re`` and ``enum``.
    Malformed JSON raises ``ValueError``.
    """
    hooks = {"parse_float": _refuse_number, "parse_constant": _refuse_number}
    try:
        from _json import make_scanner
    except ImportError:  # not CPython: the same reader, through json
        import json
        return json.loads(text, **hooks)
    scan = make_scanner(SimpleNamespace(
        strict=True, object_hook=None, object_pairs_hook=None, parse_int=int, **hooks
    ))
    start = len(text) - len(text.lstrip(_JSON_SPACE))
    try:
        value, end = scan(text, start)
    except StopIteration as exc:
        raise ValueError(f"expecting a value at char {exc.value}") from None
    if end != len(text.rstrip(_JSON_SPACE)):
        raise ValueError(f"extra data at char {end}")
    return value


def _read_entry(path: str, model: Model, order: int) -> tuple[bool, bool]:
    """(every b, bhat, c and chat integral, every check true) of the cache
    entry of ``model`` at ``order``; a corrupted entry names its file.

    The entry is read by :func:`_json_load`, so a float or a constant where
    an int belongs is corrupted, and so is one nested too deeply to read.
    Its text must be what the writer's own render, :func:`report_json_text`,
    gives the report of ``model`` at ``order`` that
    :meth:`IntegralityReport.from_json_dict` rebuilds from its stored
    columns and verdicts, byte for byte, so a 1 where the writer puts true
    is corrupted too; the columns and verdicts cannot be checked here, as
    recomputing them is what the cache saves.
    """
    try:
        with open(path, newline="") as handle:
            text = handle.read()
        report = IntegralityReport.from_json_dict(model, _json_load(text))
        if report.order != order or text != report_json_text(report):
            raise ValueError(f"it is not the report of model {model.name} at order "
                             f"{order} that its own columns give")
        columns = (report.b, report.bhat, report.c, report.chat)
        return all(x.denominator == 1 for x in columns), all(report.checks.values())
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError,
            ZeroDivisionError) as exc:
        raise ValueError(f"corrupted cache entry {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    if args.n < 2:
        raise ValueError("need --n at least 2")
    print(render_enumerate(args.n, args.format))
    return 0


def cmd_series(args) -> int:
    if args.order < 1:
        raise ValueError("need --order at least 1")
    model = parse_model_args(args)
    print(render_series(model, args.order, args.which, args.format))
    return 0


def cmd_pf(args) -> int:
    model = parse_model_args(args)
    print(render_pf(model, args.format))
    return 0


def cmd_verify(args) -> int:
    if args.order < 1:
        raise ValueError("need --order at least 1")
    model = parse_model_args(args)
    if args.out and os.path.isdir(args.out):
        raise ValueError(f"--out {args.out} is a directory")
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValueError(f"--out {args.out}: its directory does not exist")
    report = integrality_report(model, args.order)
    text = report_json_text(report) if args.format == "json" or args.out else None
    if args.format == "json":
        print(text, end="")
    elif args.format == "csv":
        print(render_report_csv(report))
    else:
        print(render_report_table(report))
    if args.out:
        write_atomic(args.out, text)
    return 0


def cmd_batch(args) -> int:
    if args.n < 2:
        raise ValueError("need --n at least 2")
    if args.order < 1 or args.jobs < 1:
        raise ValueError("--order and --jobs must be positive")
    cache_dir = os.path.expanduser(
        args.cache or os.environ.get("MAHLER_CACHE") or DEFAULT_CACHE
    )
    sols = enumerate_solutions(args.n)
    verdicts = []
    pending: list[tuple[Model, str]] = []
    for kv in sols:
        model = Model.from_kvector(kv)
        path = cache_path(cache_dir, model, args.order)
        if os.path.exists(path):
            verdicts.append(_read_entry(path, model, args.order))
        else:
            pending.append((model, path))

    if pending:
        # Named by process id, as write_atomic's temporary files are, so that
        # runs sharing a cache can probe it at once.
        try:
            os.makedirs(cache_dir, exist_ok=True)
            probe = os.path.join(cache_dir, f".write-probe.{os.getpid()}")
            open(probe, "a").close()
            os.unlink(probe)
        except OSError as exc:
            raise ValueError(f"cache directory {cache_dir} is not writable: {exc}")
        code = _write_entries(pending, args.order, batch_workers(args.jobs, len(pending)))
        if code:
            return code
        verdicts += [_read_entry(path, model, args.order) for model, path in pending]

    all_integer = sum(integral for integral, _ in verdicts)
    failed_checks = sum(not checks for _, checks in verdicts)
    print(f"{len(sols) - len(pending)} cached, {len(pending)} computed")
    print(
        f"models={len(sols)} all_integer={all_integer} "
        f"with_fractional={len(sols) - all_integer} failed_checks={failed_checks}"
    )
    return 0


def parse_psi(text: str) -> tuple[int, int]:
    """``--psi`` as a (numerator, denominator) pair.

    A plain ASCII ``p`` or ``p/q`` with q > 0 is read with ``int()``; any
    other spelling goes to ``Fraction(text)``, which accepts decimals and
    exponents and gives the error for a malformed value.
    """
    num, slash, den = text.partition("/")
    if text.isascii() and num.isdigit() and (den.isdigit() or not slash):
        pair = int(num), int(den) if slash else 1
        if pair[1]:
            return pair
    from fractions import Fraction

    value = Fraction(text)
    return value.numerator, value.denominator


def cmd_measure(args) -> int:
    model = parse_model_args(args)
    result = mahler_measure(model, parse_psi(args.psi), args.order)
    print(f"m(F_psi) = {result.log_measure!r}")
    print(f"M(F_psi) = {result.measure!r}")
    print(f"tail_bound <= {result.tail_bound!r}")
    print(f"z = {_ratio_text(*result.z_pair)}")
    num, den = result.psi_pair
    if num * model.k < model.n * den:
        edge = _ratio_text(*_reduced(model.n, model.k))
        print(f"note: psi = {_ratio_text(num, den)} is below n/k = {edge}, where F_psi vanishes "
              "on the torus, so the value printed is log psi - f(z)/k and not m(F_psi)",
              file=sys.stderr)
    return 0


def _exit_code(run, *args) -> int:
    """``run(*args)`` under the exit-code contract: its own return value, or
    3, 4 or 2 with the error on stderr."""
    try:
        return run(*args)
    except ConsistencyError as exc:
        print(f"internal-consistency fault: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"outside disk of convergence: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ZeroDivisionError, KeyError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


_HANDLERS = {
    "enumerate": cmd_enumerate,
    "series": cmd_series,
    "pf": cmd_pf,
    "verify": cmd_verify,
    "batch": cmd_batch,
    "measure": cmd_measure,
}


def _run(argv: list[str]) -> int:
    args = parse_args(argv)
    if isinstance(args, str):  # the help or version text
        print(args)
        return 0
    return _HANDLERS[args.command](args)


def main(argv=None) -> int:
    # Reports print exact integers, which pass Python's default limit of
    # 4300 digits for int <-> str conversion from n = 5 models on.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    return _exit_code(_run, sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
