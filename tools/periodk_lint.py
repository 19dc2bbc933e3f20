#!/usr/bin/env python3
"""Repo-specific lint pass for periodk.

Checks invariants that neither the compiler nor clang-tidy can express:

  row-api-in-columnar-lane
      Inside a marked columnar lane (see below) the row view is off
      limits: rows() (through . or ->) / AddRow / Reserve materialize
      or decay the row representation and silently forfeit the
      vectorized path.  Lanes may sit in any file under src/ (the
      typed kernels, the output helpers, the statistics pass, the
      middleware's write path) and are delimited with marker comments:
          // periodk-lint: columnar-lane-begin(<name>)
          // periodk-lint: columnar-lane-end(<name>)

  row-eval-in-typed-lane
      Inside a marked typed lane (the typed expression evaluator,
      engine/typed_eval.cc; the split-aggregate's phase 1, sweep and
      finalize, engine/temporal_ops.cc; the overlap join's staging,
      sweep and residual filter, engine/interval_join.cc) expressions
      and aggregates run over whole typed columns: Eval( / EvalBool( /
      ScratchRow / Get(
      evaluate or read one Value row at a time, and AggState folds one
      Value-typed state per aggregate and cell, forfeiting the typed
      path.  Delimited like the columnar lanes:
          // periodk-lint: typed-lane-begin(<name>)
          // periodk-lint: typed-lane-end(<name>)

  layout-check-outside-storage
      Kernels read typed columns (Relation::ReadColumn) and emit through
      the output helpers (Relation::FromColumns / Gather / Concat), which
      build columns whatever the sources' layout, so the storage layout
      is known only to engine/relation.* and engine/column.*.
      is_columnar() anywhere else in src/ reintroduces a per-kernel
      row/columnar lane pair.

  naked-mutex
      src/ code must use the annotated wrappers from
      common/thread_annotations.h (Mutex, SharedMutex, MutexLock, ...)
      so Clang's thread-safety analysis sees every lock.  Raw
      std::mutex & friends are invisible to the analysis.

  thread-spawn-in-src
      A query runs on its caller's thread: every operator is one
      sequential loop, and concurrency exists only between queries
      (snapshot readers against writers).  std::thread, std::jthread
      and std::async anywhere in src/ would start work inside a query
      again.

  relation-by-value
      Relation is a deep container (row vectors or whole columns);
      passing it by value copies the table.  Take const Relation& (or
      Relation&& for sinks).  Deliberate ownership sinks carry an
      allow() suppression naming the reason.

  missing-nodiscard
      Function declarations in headers returning Status or Result<T>
      must be marked [[nodiscard]].  The class-level [[nodiscard]] on
      Status/Result already catches discards at call sites; the
      per-declaration marker keeps the contract visible at the API and
      survives wrappers (e.g. auto-returning forwarders).

Suppressions: a finding is waived by a comment on the same or the
preceding line --

    // periodk-lint: allow(<rule-id>): <reason>

The reason is mandatory; a blanket allow() without one is itself
reported.

Usage:
    tools/periodk_lint.py [--root DIR] [FILE...]
    tools/periodk_lint.py --self-test
"""

import argparse
import os
import re
import sys
import tempfile

ALLOW_RE = re.compile(r"periodk-lint:\s*allow\(([a-z-]+)\):?\s*(.*)")
LANE_BEGIN_RE = re.compile(r"periodk-lint:\s*columnar-lane-begin\(([\w-]+)\)")
LANE_END_RE = re.compile(r"periodk-lint:\s*columnar-lane-end\(([\w-]+)\)")
TYPED_BEGIN_RE = re.compile(r"periodk-lint:\s*typed-lane-begin\(([\w-]+)\)")
TYPED_END_RE = re.compile(r"periodk-lint:\s*typed-lane-end\(([\w-]+)\)")

ROW_API_RE = re.compile(r"(?:\.|->)rows\(\)|\bAddRow\s*\(|\bReserve\s*\(")
ROW_EVAL_RE = re.compile(
    r"\bEval\s*\(|\bEvalBool\s*\(|\bScratchRow\b|\bGet\s*\("
    r"|\bAggState\b")
LAYOUT_CHECK_RE = re.compile(r"\bis_columnar\s*\(")
NAKED_MUTEX_RE = re.compile(
    r"std::(?:recursive_|shared_|timed_)?mutex\b"
    r"|std::condition_variable(?:_any)?\b"
    r"|std::(?:lock_guard|unique_lock|shared_lock|scoped_lock)\b")
THREAD_SPAWN_RE = re.compile(r"std::(?:thread|jthread|async)\b")
# A Relation parameter passed by value: `Relation ident` directly
# followed by `,` / `)` / `=` (default argument).  References, rvalue
# references and pointers do not match.  DOTALL so parameters on
# continuation lines are still seen.
RELATION_BY_VALUE_RE = re.compile(
    r"[(,]\s*Relation\s+\w+\s*(?=[,)=])", re.DOTALL)
# `Status f(...)` / `Result<...> f(...)` at a declaration head.  The
# required whitespace after the type excludes qualified calls such as
# Status::OK(); the lookbehind excludes template arguments.
NODISCARD_DECL_RE = re.compile(
    r"(?<![:\w<,])(?:Status|Result<[^;{}()]*>)\s+\w+\s*\(")

# Files exempt from naked-mutex: the wrappers themselves.
MUTEX_EXEMPT = ("common/thread_annotations.h",)
# The only files that may ask a relation for its storage layout.
LAYOUT_OWNERS = ("engine/relation.h", "engine/relation.cc",
                 "engine/column.h", "engine/column.cc")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line
    structure, so token scans cannot match inside them."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + quote if j - i >= 2
                       else text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def collect_allows(lines, findings, path):
    """Maps line number -> set of allowed rule ids.  An allow() on line
    L waives findings on L..L+2: the comment sits on or above the
    flagged line, and declarations wrap onto a continuation line."""
    allows = {}
    for idx, line in enumerate(lines, start=1):
        m = ALLOW_RE.search(line)
        if m is None:
            continue
        rule, reason = m.group(1), m.group(2).strip()
        if not reason:
            findings.append(Finding(
                path, idx, "suppression-missing-reason",
                f"allow({rule}) must state a reason after the colon"))
            continue
        for covered in (idx, idx + 1, idx + 2):
            allows.setdefault(covered, set()).add(rule)
    return allows


def check_lanes(path, lines, findings, begin_re, end_re, token_re, rule,
                what):
    """Lanes delimited by begin_re / end_re must close, must not nest,
    and must not contain token_re; `what` says why, naming the lane."""
    lane = None  # (name, begin line)
    for idx, line in enumerate(lines, start=1):
        begin = begin_re.search(line)
        end = end_re.search(line)
        if begin is not None:
            if lane is not None:
                findings.append(Finding(
                    path, idx, rule,
                    f"lane '{begin.group(1)}' opened inside open lane "
                    f"'{lane[0]}' (line {lane[1]})"))
            lane = (begin.group(1), idx)
            continue
        if end is not None:
            if lane is None or end.group(1) != lane[0]:
                findings.append(Finding(
                    path, idx, rule, f"stray lane end '{end.group(1)}'"))
            lane = None
            continue
        if lane is not None and token_re.search(line) is not None:
            findings.append(Finding(path, idx, rule, what.format(lane[0])))
    if lane is not None:
        findings.append(Finding(
            path, lane[1], rule, f"lane '{lane[0]}' is never closed"))


def check_columnar_lanes(path, lines, findings):
    check_lanes(path, lines, findings, LANE_BEGIN_RE, LANE_END_RE,
                ROW_API_RE, "row-api-in-columnar-lane",
                "row API inside columnar lane '{}' (rows()/AddRow/"
                "Reserve decay the columnar path)")


def check_typed_lanes(path, lines, findings):
    check_lanes(path, lines, findings, TYPED_BEGIN_RE, TYPED_END_RE,
                ROW_EVAL_RE, "row-eval-in-typed-lane",
                "row evaluation inside typed lane '{}' (Eval/EvalBool/"
                "ScratchRow/Get work one Value row at a time, AggState "
                "one Value-typed state)")


def check_layout_outside_storage(path, rel, stripped_lines, findings):
    if rel.replace(os.sep, "/") in LAYOUT_OWNERS:
        return
    for idx, line in enumerate(stripped_lines, start=1):
        if LAYOUT_CHECK_RE.search(line) is not None:
            findings.append(Finding(
                path, idx, "layout-check-outside-storage",
                "is_columnar() outside engine/relation.* and "
                "engine/column.*: read typed columns (ReadColumn) and "
                "emit through FromColumns/Gather/Concat instead"))


def check_naked_mutex(path, rel, stripped_lines, findings):
    if any(rel.endswith(e) for e in MUTEX_EXEMPT):
        return
    for idx, line in enumerate(stripped_lines, start=1):
        m = NAKED_MUTEX_RE.search(line)
        if m is not None:
            findings.append(Finding(
                path, idx, "naked-mutex",
                f"use the annotated wrappers from "
                f"common/thread_annotations.h instead of {m.group(0)}"))


def check_thread_spawn(path, stripped_lines, findings):
    for idx, line in enumerate(stripped_lines, start=1):
        m = THREAD_SPAWN_RE.search(line)
        if m is not None:
            findings.append(Finding(
                path, idx, "thread-spawn-in-src",
                f"{m.group(0)} in src/: a query runs on its caller's "
                f"thread; concurrency is only between queries"))


def check_relation_by_value(path, stripped, findings):
    for m in RELATION_BY_VALUE_RE.finditer(stripped):
        # Position the finding on the line of the Relation token, where
        # a same-line or preceding-line allow() naturally sits.
        token = stripped.index("Relation", m.start(), m.end())
        findings.append(Finding(
            path, line_of(stripped, token), "relation-by-value",
            "Relation passed by value copies the table; take "
            "const Relation& (or suppress for a deliberate sink)"))


def check_missing_nodiscard(path, rel, stripped, findings):
    if not rel.endswith(".h"):
        return
    for m in NODISCARD_DECL_RE.finditer(stripped):
        # The declaration segment: everything since the previous
        # ; { or } must mention [[nodiscard]].
        start = max(stripped.rfind(c, 0, m.start()) for c in ";{}")
        segment = stripped[start + 1:m.start()]
        if "[[nodiscard]]" in segment:
            continue
        if re.search(r"\breturn\s*$", segment):
            continue  # return statement in an inline body, not a decl
        findings.append(Finding(
            path, line_of(stripped, m.start()), "missing-nodiscard",
            "Status/Result-returning declaration lacks [[nodiscard]]"))


def lint_file(path, rel):
    try:
        text = open(path, encoding="utf-8").read()
    except (OSError, UnicodeDecodeError) as err:
        return [Finding(path, 0, "io-error", str(err))]
    findings = []
    lines = text.splitlines()
    stripped = strip_comments_and_strings(text)
    stripped_lines = stripped.splitlines()
    allows = collect_allows(lines, findings, path)
    check_columnar_lanes(path, lines, findings)
    check_typed_lanes(path, lines, findings)
    check_layout_outside_storage(path, rel, stripped_lines, findings)
    check_naked_mutex(path, rel, stripped_lines, findings)
    check_thread_spawn(path, stripped_lines, findings)
    check_relation_by_value(path, stripped, findings)
    check_missing_nodiscard(path, rel, stripped, findings)
    return [f for f in findings
            if f.rule not in allows.get(f.line, ())]


def lint_tree(root):
    findings = []
    src = os.path.join(root, "src")
    for dirpath, _, names in os.walk(src):
        for name in sorted(names):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, src)
            findings.extend(lint_file(path, rel))
    return findings


# --- self test --------------------------------------------------------------

SELF_TEST_FILES = {
    # One violation per rule, plus a suppressed twin proving allow()
    # works and a clean lane proving markers do not themselves fire.
    "src/engine/lane_bad.cc": """\
// periodk-lint: columnar-lane-begin(demo)
void Kernel(const Relation& input) {
  for (const Row& row : input.rows()) Use(row);
}
// periodk-lint: columnar-lane-end(demo)
""",
    "src/engine/lane_ok.cc": """\
// periodk-lint: columnar-lane-begin(demo)
void Kernel(const Relation& input) {
  const int64_t* xs = input.col(0).ints();
}
// periodk-lint: columnar-lane-end(demo)
""",
    # A table copy decayed to rows and grown row by row: what the
    # insert-rows lane keeps off the write path.
    "src/middleware/append_lane_bad.cc": """\
// periodk-lint: columnar-lane-begin(insert-rows)
Relation next = *current;
next.Reserve(next.size() + rows.size());
for (Row& row : rows) next.AddRow(std::move(row));
// periodk-lint: columnar-lane-end(insert-rows)
""",
    # The row-at-a-time select that the typed select lane replaced:
    # both branches decay or copy rows.
    "src/engine/select_lane_bad.cc": """\
// periodk-lint: columnar-lane-begin(select)
Relation ExecSelect(const Plan& plan, RelHandle in) {
  Relation out(plan.schema);
  if (in.use_count() == 1) {
    out.Reserve(in->size());
    for (const Row& row : Materialize(std::move(in)).rows()) {
      if (plan.predicate->EvalBool(row)) out.AddRow(row);
    }
  } else {
    for (const Row& row : in->rows()) {
      if (plan.predicate->EvalBool(row)) out.AddRow(row);
    }
  }
  return out;
}
// periodk-lint: columnar-lane-end(select)
""",
    # The join emission that building each joined row before testing
    # it meant: the pair's row is appended after the check.
    "src/engine/join_lane_bad.cc": """\
// periodk-lint: columnar-lane-begin(hash-join)
void EmitChecked(const JoinSides& sides, uint32_t l, uint32_t r,
                 const Expr* check, Relation& out) {
  Row row;
  row.reserve(sides.lcols.size() + sides.rcols.size());
  sides.left.AppendRow(l, sides.lcols, &row);
  sides.right.AppendRow(r, sides.rcols, &row);
  if (check == nullptr || check->EvalBool(row)) out.AddRow(std::move(row));
}
// periodk-lint: columnar-lane-end(hash-join)
""",
    # The row-at-a-time select the typed evaluator replaced: a scratch
    # row loaded and judged one row at a time.
    "src/engine/typed_lane_bad.cc": """\
// periodk-lint: typed-lane-begin(select)
Relation ExecSelect(const Plan& plan, const Relation& input) {
  ScratchRow scratch({plan.predicate}, input);
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < input.size(); ++i) {
    if (plan.predicate->EvalBool(scratch.Load(i))) {
      ids.push_back(static_cast<uint32_t>(i));
    }
  }
  return GatherRows(plan, input, ids);
}
// periodk-lint: typed-lane-end(select)
""",
    # The split-aggregate's phase 1 before it was typed: per cell a
    # partial holding a heap vector of AggStates, each fed one cell at a
    # time, then opened and closed whole by the sweep.
    "src/engine/split_agg_lane_bad.cc": """\
// periodk-lint: typed-lane-begin(split-aggregate)
struct Partial {
  TimePoint begin = 0;
  TimePoint end = 0;
  int64_t star = 0;
  std::vector<AggState> states;
};
Partial& p = partials[slot];
p.star += 1;
for (size_t a = 0; a < aggs.size(); ++a) {
  p.states[a].AccumulateColumn(*args[static_cast<size_t>(arg_of[a])], i);
}
void Open(const AggState& s) { Apply(s, 1); }
// periodk-lint: typed-lane-end(split-aggregate)
""",
    # The overlap join's residual before it was filtered typed: every
    # swept pair loaded into a scratch row and judged one at a time.
    "src/engine/overlap_join_lane_bad.cc": """\
// periodk-lint: typed-lane-begin(overlap-join)
ScratchRow scratch({ja.residual}, left, &right);
SweepBucket(bucket, sweep, [&](uint32_t l, uint32_t r) {
  if (ja.residual->EvalBool(scratch.Load(l, r))) pairs.Add(l, r);
});
// periodk-lint: typed-lane-end(overlap-join)
""",
    "src/engine/typed_lane_ok.cc": """\
// periodk-lint: typed-lane-begin(demo)
std::optional<ColumnData> col = EvalTyped(*e, input);
const int64_t* xs = col->ints();
// periodk-lint: typed-lane-end(demo)
""",
    "src/engine/layout_bad.cc": """\
// is_columnar() in a comment is fine.
Relation Kernel(const Relation& input) {
  if (input.is_columnar()) return Columnar(input);
  return Rows(input);
}
""",
    "src/engine/relation.cc": """\
TypedColumn Relation::ReadColumn(size_t c) const {
  if (is_columnar()) return TypedColumn(columns_[c]);
  return TypedColumn(ColumnData::Encode(rows_, c));
}
""",
    "src/common/mutex_bad.cc": """\
#include <mutex>
std::mutex raw_mu;
""",
    # The deleted work-stealing pool's worker spawn: its constructor
    # emplaced one std::thread per extra thread into the member vector,
    # so the finding is on the member's type.
    "src/common/thread_pool_bad.cc": """\
ThreadPool::ThreadPool(int num_threads) {
  for (int i = 1; i < num_threads; ++i) {
    workers_.emplace_back(&ThreadPool::WorkerLoop, this,
                          static_cast<size_t>(i));
  }
}
std::vector<std::thread> workers_;
// periodk-lint: allow(thread-spawn-in-src): suppressed twin for the test
std::vector<std::thread> allowed_workers_;
""",
    "src/ra/byvalue_bad.h": """\
void Consume(Relation relation);
// periodk-lint: allow(relation-by-value): ownership sink for the test
void ConsumeAllowed(Relation relation);
""",
    "src/sql/nodiscard_bad.h": """\
class Status;
Status Flush();
[[nodiscard]] Status FlushChecked();
""",
    "src/common/reasonless.cc": """\
// periodk-lint: allow(naked-mutex):
""",
}

SELF_TEST_EXPECT = {
    ("lane_bad.cc", "row-api-in-columnar-lane"): 1,
    ("append_lane_bad.cc", "row-api-in-columnar-lane"): 2,
    ("select_lane_bad.cc", "row-api-in-columnar-lane"): 5,
    ("join_lane_bad.cc", "row-api-in-columnar-lane"): 1,
    ("typed_lane_bad.cc", "row-eval-in-typed-lane"): 2,
    ("split_agg_lane_bad.cc", "row-eval-in-typed-lane"): 2,
    ("overlap_join_lane_bad.cc", "row-eval-in-typed-lane"): 2,
    ("layout_bad.cc", "layout-check-outside-storage"): 1,
    ("mutex_bad.cc", "naked-mutex"): 1,
    ("thread_pool_bad.cc", "thread-spawn-in-src"): 1,
    ("byvalue_bad.h", "relation-by-value"): 1,
    ("nodiscard_bad.h", "missing-nodiscard"): 1,
    ("reasonless.cc", "suppression-missing-reason"): 1,
}


def self_test():
    with tempfile.TemporaryDirectory(prefix="periodk_lint_") as root:
        for rel, body in SELF_TEST_FILES.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(body)
        findings = lint_tree(root)
        got = {}
        for f in findings:
            got[(os.path.basename(f.path), f.rule)] = got.get(
                (os.path.basename(f.path), f.rule), 0) + 1
        failures = []
        if got != SELF_TEST_EXPECT:
            for key in sorted(set(got) | set(SELF_TEST_EXPECT)):
                want_n, got_n = SELF_TEST_EXPECT.get(key, 0), got.get(key, 0)
                if want_n != got_n:
                    failures.append(
                        f"{key[0]} [{key[1]}]: expected {want_n}, "
                        f"got {got_n}")
        if failures:
            print("self-test FAILED:")
            for f in failures:
                print(f"  {f}")
            for f in findings:
                print(f"  raw: {f}")
            return 1
    print("self-test passed: every rule fires and allow() suppresses.")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in rule self test and exit")
    ap.add_argument("files", nargs="*",
                    help="specific files to lint (default: all of src/)")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    if args.files:
        findings = []
        src = os.path.join(args.root, "src")
        for path in args.files:
            rel = os.path.relpath(os.path.abspath(path), src)
            findings.extend(lint_file(path, rel))
    else:
        findings = lint_tree(args.root)

    for f in findings:
        print(f)
    if findings:
        print(f"periodk-lint: {len(findings)} finding(s).", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
