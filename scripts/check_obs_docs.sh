#!/usr/bin/env bash
# Docs gate for the observability layer: every metric and span name emitted
# from src/, bench/, or tools/, every run-log event and field name written
# by src/obs/runlog.cc, every serve-log event and field name written by
# src/obs/servelog.cc, every endpoint the obs HTTP listener serves, and
# every public symbol declared in the src/obs headers, must appear in
# OBSERVABILITY.md. Fails (exit 1) listing what is missing. Names are
# extractable because call sites pass string literals to
# GetCounter/GetGauge/GetHistogram, ROTOM_TRACE_SPAN, EmitCompletedSpan,
# RunLogLine/ServeLogLine, and their ::Add — keep it that way. Dynamic
# per-tenant metric names are the one exception: they are emitted through
# the Tenant{Counter,Gauge,Histogram}(tenant, "<suffix>") helpers in
# src/serve/tenant_server.cc, and the gate extracts the literal suffixes
# and requires each to be documented as serve.tenant.<tenant>.<suffix>.
# In the other direction, every `span.<name>.us` row of the span catalog
# table must name a span something still emits, and every counter, gauge
# or histogram row of the metric catalog must name an instrument something
# still emits, so a removed span or metric cannot leave a dead row behind.
#
# Usage:
#   scripts/check_obs_docs.sh             # gate OBSERVABILITY.md
#   scripts/check_obs_docs.sh --selftest  # prove the gate actually fails:
#       copies the doc, strips a registry.* metric line, a serve.tenant.*
#       suffix line, a serve-log field line, and the /metrics endpoint
#       lines, injects a span row and metric rows nothing emits, and
#       asserts the gate rejects each mutilated copy while passing the
#       intact one. Wired into ctest as tools_obs_docs_selftest.
#
# ROTOM_OBS_DOC overrides the documentation path (used by --selftest).

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--selftest" ]]; then
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT

  echo "selftest: intact copy of OBSERVABILITY.md must pass"
  cp OBSERVABILITY.md "$tmp/intact.md"
  ROTOM_OBS_DOC="$tmp/intact.md" "$0" >/dev/null

  echo "selftest: undocumented registry.* metric must fail"
  grep -v 'registry\.swaps' OBSERVABILITY.md > "$tmp/no_registry.md"
  if ROTOM_OBS_DOC="$tmp/no_registry.md" "$0" >/dev/null 2>&1; then
    echo "selftest FAILED: missing registry.swaps was not flagged" >&2
    exit 1
  fi

  echo "selftest: undocumented serve.tenant.* suffix must fail"
  grep -v 'serve\.tenant\.<tenant>\.queue_depth' OBSERVABILITY.md \
    > "$tmp/no_tenant.md"
  if ROTOM_OBS_DOC="$tmp/no_tenant.md" "$0" >/dev/null 2>&1; then
    echo "selftest FAILED: missing serve.tenant queue_depth suffix" \
         "was not flagged" >&2
    exit 1
  fi

  echo "selftest: undocumented serve-log field must fail"
  grep -v 'p99_us' OBSERVABILITY.md > "$tmp/no_servelog_field.md"
  if ROTOM_OBS_DOC="$tmp/no_servelog_field.md" "$0" >/dev/null 2>&1; then
    echo "selftest FAILED: missing serve-log p99_us field was not flagged" >&2
    exit 1
  fi

  echo "selftest: undocumented obs http endpoint must fail"
  grep -v '/metrics' OBSERVABILITY.md > "$tmp/no_endpoint.md"
  if ROTOM_OBS_DOC="$tmp/no_endpoint.md" "$0" >/dev/null 2>&1; then
    echo "selftest FAILED: missing /metrics endpoint was not flagged" >&2
    exit 1
  fi

  echo "selftest: span row for a span nothing emits must fail"
  { cat OBSERVABILITY.md
    echo '| `span.selftest.dead.us` | nowhere | a span no code emits | — |'
  } > "$tmp/dead_span.md"
  if ROTOM_OBS_DOC="$tmp/dead_span.md" "$0" >/dev/null 2>&1; then
    echo "selftest FAILED: dead span.selftest.dead.us row was not flagged" >&2
    exit 1
  fi

  # One dead row per naming form: a literal name, a per-tenant suffix, and
  # a name built around another placeholder.
  for row in 'selftest.dead' 'serve.tenant.<tenant>.selftest_dead' \
             'stream.source.<name>.selftest_dead'; do
    echo "selftest: metric row for $row, which nothing emits, must fail"
    { cat OBSERVABILITY.md
      echo "| \`$row\` | counter | events | never | — |"
    } > "$tmp/dead_metric.md"
    if ROTOM_OBS_DOC="$tmp/dead_metric.md" "$0" >/dev/null 2>&1; then
      echo "selftest FAILED: dead $row row was not flagged" >&2
      exit 1
    fi
  done

  echo "check_obs_docs.sh selftest OK"
  exit 0
fi

doc="${ROTOM_OBS_DOC:-OBSERVABILITY.md}"
if [[ ! -f "$doc" ]]; then
  echo "check_obs_docs: $doc is missing" >&2
  exit 1
fi

missing=0

require() {
  # require <name> <what>
  if ! grep -qF "$1" "$doc"; then
    echo "check_obs_docs: $2 '$1' is not documented in $doc" >&2
    missing=1
  fi
}

# ---- Emitted metric names: Get{Counter,Gauge,Histogram}("...") ----
# Comment lines are dropped so doc-comment examples are not treated as
# emitting sites.
metric_names="$(grep -rh 'Get\(Counter\|Gauge\|Histogram\)("' src bench tools \
                  | grep -vE '^[[:space:]]*(//|\*)' \
                  | grep -oE 'Get(Counter|Gauge|Histogram)\("[^"]+"\)' \
                  | sed -E 's/.*\("([^"]+)"\).*/\1/' | sort -u)"
while IFS= read -r name; do
  require "$name" "metric"
done <<< "$metric_names"

# ---- Per-tenant metric suffixes: Tenant{Counter,Gauge,Histogram}(tenant,
# "<suffix>") call sites in the serve layer, documented with the <tenant>
# placeholder since the full name is only known at runtime. ----
tenant_suffixes="$(grep -rh 'Tenant\(Counter\|Gauge\|Histogram\)(' src bench tools \
                     | grep -vE '^[[:space:]]*(//|\*)' \
                     | grep -oE 'Tenant(Counter|Gauge|Histogram)\([^)"]*"[^"]+"\)' \
                     | sed -E 's/.*"([^"]+)"\).*/\1/' | sort -u)"
while IFS= read -r suffix; do
  require "serve.tenant.<tenant>.${suffix}" "per-tenant metric"
done <<< "$tenant_suffixes"

# ---- Dead metric rows: every counter/gauge/histogram row of the metric
# catalog must name an instrument something emits. A literal name must
# match a Get*("...") site above; serve.tenant.<tenant>.<suffix> must match
# a Tenant* helper suffix; any other <placeholder> row must match a Get*(
# call built from the same literal prefix and suffix (the
# stream.source.<name>.draws row matches
# GetCounter("stream.source." + name_ + ".draws")). ----
built_metrics="$(grep -rh 'Get\(Counter\|Gauge\|Histogram\)(' src bench tools \
                   | grep -vE '^[[:space:]]*(//|\*)' \
                   | grep -oE 'Get(Counter|Gauge|Histogram)\((std::string\()?"[^"]*"\)? \+ [^"+]+ \+ "[^"]*"\)' \
                   | sed -E 's/^[^"]*"([^"]*)"[^"]*"([^"]*)"\)$/\1<>\2/' \
                   | sort -u)"
while IFS= read -r name; do
  if [[ "$name" == "serve.tenant.<tenant>."* ]]; then
    grep -qxF "${name#serve.tenant.<tenant>.}" <<< "$tenant_suffixes" && continue
  elif [[ "$name" == *"<"*">"* ]]; then
    grep -qxF "${name%%<*}<>${name##*>}" <<< "$built_metrics" && continue
  elif grep -qxF "$name" <<< "$metric_names"; then
    continue
  fi
  echo "check_obs_docs: metric row '$name' in $doc names an instrument" \
       "nothing emits (Get{Counter,Gauge,Histogram} / Tenant* helpers)" >&2
  missing=1
done < <(grep -oE '^\| `[^`]+` \| (counter|gauge|histogram) \|' "$doc" \
           | sed -E 's/^\| `([^`]+)`.*/\1/' | sort -u)

# ---- Span names: ROTOM_TRACE_SPAN("...") documented as span.<name>.us ----
trace_spans="$(grep -rh 'ROTOM_TRACE_SPAN("' src bench tools \
                 | grep -vE '^[[:space:]]*(//|\*)' \
                 | grep -oE 'ROTOM_TRACE_SPAN\("[^"]+"\)' \
                 | sed -E 's/.*\("([^"]+)"\).*/\1/' | sort -u)"
while IFS= read -r name; do
  require "span.${name}.us" "span"
done <<< "$trace_spans"

# ---- Retrospective span names: EmitCompletedSpan("...", us) records the
# same span.<name>.us histogram without a scope object, so the serving
# hot path only pays for spans on requests that cross a threshold. ----
completed_spans="$(grep -rh 'EmitCompletedSpan("' src bench tools \
                     | grep -vE '^[[:space:]]*(//|\*)' \
                     | grep -oE 'EmitCompletedSpan\("[^"]+"' \
                     | sed -E 's/.*\("([^"]+)"/\1/' | sort -u)"
while IFS= read -r name; do
  require "span.${name}.us" "completed span"
done <<< "$completed_spans"

# ---- Dead span rows: every `span.<name>.us` row of the span catalog
# table must name a span emitted through one of the two paths above. ----
while IFS= read -r name; do
  if ! grep -qxF "$name" <<< "$trace_spans"$'\n'"$completed_spans"; then
    echo "check_obs_docs: span row 'span.${name}.us' in $doc names a" \
         "span nothing emits (ROTOM_TRACE_SPAN / EmitCompletedSpan)" >&2
    missing=1
  fi
done < <(grep -oE '^\| `span\.[^`]+\.us`' "$doc" \
           | sed -E 's/^\| `span\.(.+)\.us`$/\1/' | sort -u)

# ---- Run-log event names: RunLogLine <var>("...") in runlog.cc, plus the
# raw crash-handler line. Documented backticked so a bare word elsewhere in
# the doc cannot satisfy the check by accident.
runlog_src="src/obs/runlog.cc"
while IFS= read -r name; do
  require "\`$name\`" "run-log event"
done < <({ grep -hoE 'RunLogLine [a-z_]+\("[^"]+"\)' "$runlog_src" \
             | sed -E 's/.*\("([^"]+)"\).*/\1/'
           grep -hoE '\\"event\\": \\"[a-z_]+' "$runlog_src" \
             | sed -E 's/.*\\"event\\": \\"//'; } | sort -u)

# ---- Run-log field names: RunLogLine::Add("...") literals. The dynamic
# per-operator fields are emitted as "op." + name (kept) and "gen." + name
# (offered) and must be documented as op.<operator> / gen.<operator>;
# crash-handler fields are raw snprintf keys.
while IFS= read -r field; do
  if [[ "$field" == "op." ]]; then
    require "op.<operator>" "run-log field"
  elif [[ "$field" == "gen." ]]; then
    require "gen.<operator>" "run-log field"
  else
    require "\`$field\`" "run-log field"
  fi
done < <({ grep -hoE '\.(Add|Raw)\("[^"]+"' "$runlog_src" \
             | sed -E 's/.*\("([^"]+)"?/\1/'
           grep -hoE '\\"signo\\"' "$runlog_src" | sed 's/[\\"]//g'; } \
           | grep -v '^event$' | sort -u)

# ---- Serve-log (flight recorder) event names: ServeLogLine <var>("...")
# in servelog.cc, documented backticked like the run-log events. ----
servelog_src="src/obs/servelog.cc"
while IFS= read -r name; do
  require "\`$name\`" "serve-log event"
done < <(grep -hoE 'ServeLogLine [a-z_]+\("[^"]+"\)' "$servelog_src" \
           | sed -E 's/.*\("([^"]+)"\).*/\1/' | sort -u)

# ---- Serve-log field names: ServeLogLine::Add/Raw("...") literals. ----
while IFS= read -r field; do
  require "\`$field\`" "serve-log field"
done < <(grep -hoE '\.(Add|Raw)\("[^"]+"' "$servelog_src" \
           | sed -E 's/.*\("([^"]+)"?/\1/' \
           | grep -v '^event$' | sort -u)

# ---- The serve-log schema id readers key on (kServeLogSchema) ----
while IFS= read -r schema; do
  require "\`$schema\`" "serve-log schema id"
done < <(grep -hoE 'kServeLogSchema\[\] = "[^"]+"' src/obs/servelog.h \
           | sed -E 's/.*"([^"]+)".*/\1/' | sort -u)

# ---- Endpoints served by the loopback obs HTTP listener ----
while IFS= read -r endpoint; do
  require "\`$endpoint\`" "obs http endpoint"
done < <(grep -hoE '"/[a-z]+"' src/serve/obs_http.cc \
           | sed 's/"//g' | sort -u)

# ---- Registered DA operator names: the op.<name>/gen.<name> catalog must
# list every operator the registry can emit. The authoritative enumeration
# is `rotom_inspect --list-ops` (any built copy works — the list is
# compiled in); when no binary exists yet (docs-only checkout) fall back to
# scraping the one-line `return "<name>";` bodies of Operator::name()
# overrides in src/augment.
list_ops() {
  local bin
  for bin in build*/tools/rotom_inspect; do
    if [[ -x "$bin" ]]; then
      "$bin" --list-ops
      return
    fi
  done
  grep -rhA1 'name() const override' src/augment \
    | grep -oE 'return "[a-z_0-9]+"' | sed -E 's/return "([^"]+)"/\1/'
}
while IFS= read -r name; do
  require "\`op.$name\`" "DA operator (registry)"
done < <(list_ops | sort -u)

# ---- Derived metric names appended to BENCH_*.json ("extras") ----
while IFS= read -r name; do
  require "$name" "derived metric"
done < <(grep -rh 'extras\.emplace_back("' src bench tools \
           | grep -vE '^[[:space:]]*(//|\*)' \
           | grep -oE 'emplace_back\("[^"]+"' \
           | sed -E 's/.*\("([^"]+)"/\1/' | sort -u)

# ---- Public API of the obs headers: classes and free functions ----
while IFS= read -r symbol; do
  require "$symbol" "src/obs public symbol"
done < <(grep -hE '^(class|struct) [A-Z][A-Za-z0-9]*' src/obs/*.h \
           | sed -E 's/^(class|struct) ([A-Za-z0-9]+).*/\2/' | sort -u)

while IFS= read -r symbol; do
  require "$symbol" "src/obs public function"
done < <(grep -hoE '^[A-Za-z_:<>&* ]+ [A-Z][A-Za-z0-9]*\(' src/obs/*.h \
           | grep -vE '^(class|struct|//| )' \
           | sed -E 's/.* ([A-Z][A-Za-z0-9]*)\($/\1/' | sort -u)

# ---- Documented env vars must include the obs switches ----
for var in ROTOM_METRICS ROTOM_TRACE ROTOM_NUM_THREADS ROTOM_RUNLOG_DIR \
           ROTOM_SERVELOG_DIR ROTOM_OBS_SNAPSHOT; do
  require "$var" "environment variable"
done

if [[ "$missing" -ne 0 ]]; then
  echo "check_obs_docs: FAILED — update $doc (see OBSERVABILITY.md's catalog sections)" >&2
  exit 1
fi
echo "check_obs_docs: all emitted names and obs symbols are documented"
