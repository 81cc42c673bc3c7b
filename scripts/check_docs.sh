#!/usr/bin/env bash
# Documentation checks, run by the CI docs job and locally:
#   1. every src/* subsystem with more than two files must have its own
#      README.md or an entry in the top-level README's subsystem map;
#   2. every relative markdown link in tracked *.md files must resolve;
#   3. every tracked BENCH_*.json must have its schema documented in
#      docs/benchmarks.md;
#   4. every backticked repo path (`src/...`, `bench/...`, `tests/...`,
#      `examples/...`, `scripts/...`, `docs/...`) in README.md, docs/*.md,
#      src/*/README.md and .claude/skills/*/SKILL.md must exist as written
#      (a glob must match), or with .cpp appended for bench and example
#      targets such as `bench/fig4_multiprocessor`.
set -u
cd "$(dirname "$0")/.."

fail=0

# --- 1. subsystem documentation -------------------------------------------
for dir in src/*/; do
  name=$(basename "$dir")
  count=$(find "$dir" -maxdepth 1 -type f | wc -l)
  if [ "$count" -gt 2 ]; then
    if [ ! -f "${dir}README.md" ] && ! grep -q "src/${name}/" README.md; then
      echo "FAIL: src/${name} has ${count} files but neither src/${name}/README.md" \
           "nor an entry in README.md's subsystem map"
      fail=1
    fi
  fi
done

# --- 2. relative markdown links -------------------------------------------
# Matches [text](target) links; external schemes and pure anchors are skipped.
while IFS= read -r md; do
  dir=$(dirname "$md")
  while IFS= read -r link; do
    case "$link" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    target="${link%%#*}"
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ]; then
      echo "FAIL: $md links to missing file: $link"
      fail=1
    fi
  done < <(grep -oE '\[[^]]*\]\([^)]+\)' "$md" | sed -E 's/^\[[^]]*\]\(//; s/\)$//')
done < <(git ls-files -c -o --exclude-standard '*.md')

# --- 3. tracked benchmark JSON schemas ------------------------------------
while IFS= read -r bench; do
  name=$(basename "$bench")
  if ! grep -q "$name" docs/benchmarks.md; then
    echo "FAIL: $name is tracked but not documented in docs/benchmarks.md"
    fail=1
  fi
done < <(git ls-files 'BENCH_*.json')

# --- 4. backticked repo paths ---------------------------------------------
# A span may go on after its path (`bench/warpd_bench --check`): only the
# first word is checked.
for md in README.md docs/*.md src/*/README.md .claude/skills/*/SKILL.md; do
  [ -f "$md" ] || continue
  while IFS= read -r span; do
    path="${span%% *}"
    compgen -G "$path" > /dev/null && continue
    case "$path" in
      bench/*|examples/*) [ -e "$path.cpp" ] && continue ;;
    esac
    echo "FAIL: $md names a missing path: $path"
    fail=1
  done < <(grep -oE '`(src|bench|tests|examples|scripts|docs)/[^`]*`' "$md" | tr -d '`')
done

if [ "$fail" -ne 0 ]; then
  echo "docs check failed"
  exit 1
fi
echo "docs check passed"
