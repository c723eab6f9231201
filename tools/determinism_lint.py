#!/usr/bin/env python3
"""Determinism-contract linter for the hermes-ndp simulator.

The repo's crown-jewel guarantee is bit-identical simulation: golden
tests pin exact metrics, the event kernel is pinned equivalent to
isolated per-replica replays, and calibration-thread counts must
never change physics.  End-to-end golden tests catch a determinism break only
after the offending line lands; this linter rejects the known classes
of nondeterminism statically, at review time.

Enforced rules (see README "Determinism contract"):

  unordered-iter   No iteration over std::unordered_map /
                   std::unordered_set in simulation code.  Hash-table
                   iteration order is implementation-defined and can
                   vary with insertion history, so any physics or
                   report derived from it is not reproducible.
  pointer-key      No pointer-keyed ordered containers
                   (std::map<T*, ...>, std::set<T*>).  Ordered
                   iteration over pointer keys is allocation-order
                   dependent: same inputs, different heap, different
                   traversal.
  raw-random       No rand()/srand()/std::random_device/std::mt19937
                   and friends outside common/rng.hh.  All simulation
                   randomness flows through the seeded xoshiro256**
                   in common/rng.hh; std::random_device is entropy,
                   and <random> distributions are
                   implementation-defined across standard libraries.
  wall-clock       No time()/gettimeofday()/clock_gettime()/
                   std::chrono::system_clock.  Physics runs on the
                   simulator's virtual clock; wall-clock reads leak
                   host state into results.  std::chrono::steady_clock
                   is allowed — it is used only to *bill* calibration
                   wall time, never to steer simulation.
  env-read         No getenv()/setlocale()/std::locale in simulation
                   code.  Environment and locale are host state; a
                   run's output must be a function of its config and
                   seed only.
  mutable-static   No mutable static data (including thread_local) in
                   src/core, src/sched, src/runtime.  Mutable statics
                   are cross-run and cross-thread shared state:
                   order-dependent initialisation and silent coupling
                   between supposedly independent simulations.

Suppressions: a finding is waived by a justified allow comment on the
same line or the line directly above:

    // lint:allow(rule-id): why this specific use is deterministic

The justification is mandatory; a bare lint:allow(rule-id) is itself
an error (rule `unjustified-suppression`), as is an allow naming an
unknown rule (`unknown-rule`).

Engines: `--engine libclang` uses the clang Python bindings for
AST-accurate matching when available; the default `auto` falls back
to the token/regex engine below, which is deliberately conservative
(tracks declared unordered variables, strips comments and string
literals before matching) so it runs anywhere CI runs.

Exit codes: 0 clean, 1 findings, 2 usage/configuration error.
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------- rules

RULES = {
    "unordered-iter": "iteration over an unordered container "
                      "(hash order is implementation-defined)",
    "pointer-key": "pointer-keyed ordered container "
                   "(iteration order depends on allocation)",
    "raw-random": "raw randomness outside common/rng.hh "
                  "(use the seeded RNG in common/rng.hh)",
    "wall-clock": "wall-clock read in simulation code "
                  "(physics must use the virtual clock)",
    "env-read": "environment/locale read in simulation code "
                "(results must be a function of config + seed)",
    "mutable-static": "mutable static state in core/sched/runtime "
                      "(order-dependent init, cross-run coupling)",
    "unjustified-suppression": "lint:allow without a justification",
    "unknown-rule": "lint:allow names a rule this linter does not "
                    "have",
}

# Paths (relative, '/'-separated) where raw-random is legitimate: the
# seeded RNG implementation itself.
RNG_ALLOWED_SUFFIXES = ("common/rng.hh",)

# mutable-static applies only to the simulation hot layers.
MUTABLE_STATIC_DIRS = ("core", "sched", "runtime")

ALLOW_RE = re.compile(
    r"//\s*lint:allow\(([A-Za-z0-9_-]+)\)\s*(?::\s*(.*\S))?")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


# ------------------------------------------------------ source masking

def mask_code(text):
    """Replace comments and string/char literals with spaces, keeping
    line structure, so rule regexes never match inside either."""
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
            elif c == '"':
                mode = "str"
                out.append(" ")
                i += 1
            elif c == "'":
                mode = "chr"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif mode == "line":
            if c == "\n":
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # str | chr
            quote = '"' if mode == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                mode = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


# ------------------------------------------------------- regex engine

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:multi)?(?:map|set)\s*<[^;{(]*?>\s*&?\s*"
    r"(\w+)\s*[;={(]")
UNORDERED_RANGE_FOR_RE = re.compile(
    r"\bfor\s*\([^;()]*:\s*[^)]*\bunordered_(?:multi)?(?:map|set)\b")
POINTER_KEY_RE = re.compile(
    r"\b(?:std\s*::\s*)(?:multi)?(?:map|set)\s*<\s*"
    r"(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*")
RAW_RANDOM_RE = re.compile(
    r"\bstd\s*::\s*random_device\b|"
    r"\bstd\s*::\s*(?:mt19937(?:_64)?|minstd_rand0?|"
    r"default_random_engine|ranlux\w+|knuth_b)\b|"
    r"\bstd\s*::\s*s?rand\s*\(|"
    r"(?<![\w.>:])s?rand\s*\(")
WALL_CLOCK_RE = re.compile(
    r"\bstd\s*::\s*chrono\s*::\s*system_clock\b|"
    r"\bgettimeofday\s*\(|\bclock_gettime\s*\(|"
    r"\bstd\s*::\s*time\s*\(|"
    r"(?<![\w.>:])time\s*\(\s*(?:NULL|nullptr|0|&\w+)?\s*\)")
ENV_READ_RE = re.compile(
    r"\bstd\s*::\s*getenv\s*\(|"
    r"(?<![\w.>:])(?:secure_)?getenv\s*\(|"
    r"\bstd\s*::\s*setlocale\s*\(|"
    r"(?<![\w.>:])setlocale\s*\(|\bstd\s*::\s*locale\b")
# A static that is not const/constexpr/constinit and not a function:
# no '(' before the terminating ';' or '=' (member-function decls and
# static free functions always carry a parameter list).  thread_local
# counts: per-thread state still breaks "same config, same results"
# whenever thread count changes.
MUTABLE_STATIC_RE = re.compile(
    r"(?:^|\s)(?:static\s+thread_local|thread_local\s+static|"
    r"static|thread_local)\s+(?!const\b|constexpr\b|constinit\b)"
    r"[^;=(]*[;=]")
STATIC_ASSERT_RE = re.compile(r"\bstatic_assert\b|\bstatic_cast\b")


def rel_parts(path, root):
    rel = os.path.relpath(os.path.abspath(path),
                          os.path.abspath(root))
    return rel.replace(os.sep, "/")


def rule_applies(rule, relpath):
    """Per-rule path scoping over the '/'-separated relative path."""
    parts = relpath.split("/")
    if rule == "raw-random":
        return not relpath.endswith(RNG_ALLOWED_SUFFIXES)
    if rule == "mutable-static":
        return any(d in parts for d in MUTABLE_STATIC_DIRS)
    return True


def scan_regex(path, relpath, text):
    """Token/regex engine: one pass over the masked source."""
    masked = mask_code(text)
    lines = masked.split("\n")
    findings = []

    # Names of variables/members declared with an unordered type, so
    # `for (x : cache)` and `cache.begin()` are caught even when the
    # type is not spelled at the use site.
    unordered_names = set()
    for match in UNORDERED_DECL_RE.finditer(masked):
        unordered_names.add(match.group(1))
    begin_res = []
    if unordered_names:
        alt = "|".join(sorted(re.escape(n) for n in unordered_names))
        begin_res.append(re.compile(
            r"\b(?:%s)\s*\.\s*c?(?:begin|end|rbegin|rend)\s*\(" % alt))
        begin_res.append(re.compile(
            r"\bfor\s*\([^;()]*:\s*(?:\*?\s*)?(?:%s)\b" % alt))

    per_line = [
        ("unordered-iter", UNORDERED_RANGE_FOR_RE),
        ("pointer-key", POINTER_KEY_RE),
        ("raw-random", RAW_RANDOM_RE),
        ("wall-clock", WALL_CLOCK_RE),
        ("env-read", ENV_READ_RE),
    ]
    for lineno, line in enumerate(lines, 1):
        for rule, regex in per_line:
            if rule_applies(rule, relpath) and regex.search(line):
                findings.append(Finding(path, lineno, rule,
                                        RULES[rule]))
        for regex in begin_res:
            if regex.search(line):
                findings.append(Finding(path, lineno,
                                        "unordered-iter",
                                        RULES["unordered-iter"]))
        if (rule_applies("mutable-static", relpath)
                and MUTABLE_STATIC_RE.search(line)
                and not STATIC_ASSERT_RE.search(line)):
            findings.append(Finding(path, lineno, "mutable-static",
                                    RULES["mutable-static"]))
    return findings


# ----------------------------------------------------- libclang engine

def scan_libclang(path, relpath, text, index):
    """AST engine over the clang Python bindings.  Covers the rules
    that benefit from type information; the purely lexical rules
    (wall-clock, env-read, raw-random) reuse the regex matchers on
    the masked source, which is exactly as accurate and much
    cheaper."""
    import clang.cindex as ci

    tu = index.parse(path, args=["-std=c++20", "-Isrc"])
    findings = []

    def type_is_unordered(t):
        return "unordered_map" in t.spelling \
            or "unordered_set" in t.spelling

    def visit(cursor):
        if cursor.location.file and \
                cursor.location.file.name != path:
            return
        kind = cursor.kind
        if kind == ci.CursorKind.CXX_FOR_RANGE_STMT:
            children = list(cursor.get_children())
            if children and type_is_unordered(children[-2].type):
                findings.append(Finding(
                    path, cursor.location.line, "unordered-iter",
                    RULES["unordered-iter"]))
        elif kind == ci.CursorKind.VAR_DECL:
            storage = cursor.storage_class
            if storage == ci.StorageClass.STATIC and \
                    rule_applies("mutable-static", relpath) and \
                    not cursor.type.is_const_qualified():
                findings.append(Finding(
                    path, cursor.location.line, "mutable-static",
                    RULES["mutable-static"]))
            spelling = cursor.type.spelling
            if re.search(r"\b(?:map|set)\s*<[^,>]*\*", spelling) and \
                    "unordered" not in spelling:
                findings.append(Finding(
                    path, cursor.location.line, "pointer-key",
                    RULES["pointer-key"]))
        for child in cursor.get_children():
            visit(child)

    visit(tu.cursor)

    masked = mask_code(text)
    for lineno, line in enumerate(masked.split("\n"), 1):
        for rule, regex in (("raw-random", RAW_RANDOM_RE),
                            ("wall-clock", WALL_CLOCK_RE),
                            ("env-read", ENV_READ_RE)):
            if rule_applies(rule, relpath) and regex.search(line):
                findings.append(Finding(path, lineno, rule,
                                        RULES[rule]))
    return findings


# -------------------------------------------------------- suppressions

def apply_suppressions(findings, path, text):
    """Honour justified `// lint:allow(rule): why` comments on the
    finding's line or the line above; flag unjustified or unknown
    allows as findings in their own right."""
    raw_lines = text.split("\n")
    allows = {}  # line number -> (rule, justified)
    result = []
    for lineno, line in enumerate(raw_lines, 1):
        match = ALLOW_RE.search(line)
        if not match:
            continue
        rule, why = match.group(1), match.group(2)
        if rule not in RULES or rule in ("unjustified-suppression",
                                         "unknown-rule"):
            result.append(Finding(
                path, lineno, "unknown-rule",
                "lint:allow(%s): %s" % (rule, RULES["unknown-rule"])))
            continue
        if not why:
            result.append(Finding(
                path, lineno, "unjustified-suppression",
                "lint:allow(%s) needs a ': <justification>'"
                % rule))
            continue
        allows[lineno] = rule

    for finding in findings:
        waived = False
        for at in (finding.line, finding.line - 1):
            if allows.get(at) == finding.rule:
                waived = True
                break
        if not waived:
            result.append(finding)
    result.sort(key=lambda f: (f.path, f.line, f.rule))
    return result


# --------------------------------------------------------------- driver

def lint_file(path, root, engine, index):
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    relpath = rel_parts(path, root)
    if engine == "libclang":
        findings = scan_libclang(path, relpath, text, index)
    else:
        findings = scan_regex(path, relpath, text)
    return apply_suppressions(findings, path, text)


def collect_files(root, paths):
    if paths:
        files = []
        for p in paths:
            if os.path.isdir(p):
                for base, _dirs, names in sorted(os.walk(p)):
                    files.extend(os.path.join(base, n)
                                 for n in sorted(names)
                                 if n.endswith((".hh", ".cc", ".h",
                                                ".cpp", ".hpp")))
            else:
                files.append(p)
        return sorted(files)
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        raise SystemExit(
            "determinism_lint: no src/ under root %r "
            "(use --root or pass paths)" % root)
    return collect_files(root, [src])


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="statically enforce the determinism contract")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: <root>/src)")
    parser.add_argument("--root", default=None,
                        help="repo root used for rule path scoping "
                             "(default: parent of this script)")
    parser.add_argument("--engine",
                        choices=("auto", "regex", "libclang"),
                        default="auto")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the clean-run summary line")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, text in sorted(RULES.items()):
            print("%-24s %s" % (rule, text))
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    engine = args.engine
    index = None
    if engine in ("auto", "libclang"):
        try:
            import clang.cindex as ci
            index = ci.Index.create()
            engine = "libclang"
        except Exception as error:  # ImportError, missing libclang.so
            if args.engine == "libclang":
                print("determinism_lint: libclang unavailable: %s"
                      % error, file=sys.stderr)
                return 2
            engine = "regex"

    files = collect_files(root, args.paths)
    all_findings = []
    for path in files:
        all_findings.extend(lint_file(path, root, engine, index))

    for finding in all_findings:
        print(finding)
    if all_findings:
        print("determinism_lint: %d finding(s) in %d file(s) "
              "[engine=%s]"
              % (len(all_findings),
                 len({f.path for f in all_findings}), engine),
              file=sys.stderr)
        return 1
    if not args.quiet:
        print("determinism_lint: clean (%d files) [engine=%s]"
              % (len(files), engine))
    return 0


if __name__ == "__main__":
    sys.exit(main())
