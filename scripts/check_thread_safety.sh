#!/usr/bin/env bash
# Clang thread-safety gate (CI; needs clang++ — gcc parses the annotations
# away, so running this under gcc would vacuously pass and is refused).
#
# Two halves, both mandatory:
#   1. Positive: every TU under src/ and tools/ compiles clean with
#      -Werror=thread-safety over the util/thread_safety.hpp annotations.
#   2. Negative: the GENFV_TSA_NEGATIVE_TEST probe in mc/exchange.hpp — an
#      unguarded read of a GENFV_GUARDED_BY field of LemmaMailbox, which
#      portfolio threads share — must FAIL to compile, and fail with a
#      -Wthread-safety diagnostic. This proves the analysis has teeth;
#      without it, a header regression that silently disables the attributes
#      would leave half 1 green forever. A probe that fails for any other
#      reason (a typo, a missing include) tests nothing and is refused.
set -u
cd "$(dirname "$0")/.."

CXX="${CXX:-clang++}"
if ! "$CXX" --version 2>/dev/null | grep -qi clang; then
  echo "error: $CXX is not clang; thread-safety analysis needs clang++" >&2
  exit 2
fi

FLAGS=(-std=c++20 -fsyntax-only -Isrc -Wall -Wextra -Werror=thread-safety)

status=0
while IFS= read -r tu; do
  if ! "$CXX" "${FLAGS[@]}" "$tu"; then
    echo "thread-safety: FAIL $tu" >&2
    status=1
  fi
done < <(find src tools -name '*.cpp' | sort)

if [ "$status" -ne 0 ]; then
  echo "thread-safety: annotation violations above" >&2
  exit 1
fi
echo "thread-safety: all TUs clean under -Werror=thread-safety"

# Negative probe: compiling the guarded-field read without the lock MUST fail,
# and the thread-safety analysis must be what rejects it.
if probe_err=$("$CXX" "${FLAGS[@]}" -DGENFV_TSA_NEGATIVE_TEST \
    src/mc/exchange.cpp 2>&1); then
  echo "thread-safety: NEGATIVE PROBE COMPILED — analysis is toothless" >&2
  echo "(tsa_probe_unguarded in mc/exchange.hpp should be an error)" >&2
  exit 1
fi
if ! grep -q -- '-Wthread-safety' <<<"$probe_err"; then
  echo "thread-safety: negative probe failed for a reason other than" >&2
  echo "-Wthread-safety, so it tested nothing:" >&2
  echo "$probe_err" >&2
  exit 1
fi
echo "thread-safety: negative probe rejected by -Wthread-safety as expected"
