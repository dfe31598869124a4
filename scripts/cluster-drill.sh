#!/bin/sh
# cluster-drill.sh — smoke drill against a running 3-node swampd cluster.
#
# Usage: cluster-drill.sh [host[:port]...]   (default: n1 n2 n3, port 8026)
#
# For each node: wait for /readyz to report 200, assert it leads at least
# one partition and exports the swamp_cluster_* gauges. Then, through the
# first node only, walk the authenticated northbound: OAuth
# client_credentials grant, scatter-gather entity list, and routed
# fetches of the pilot probe entities (which hash across all leaders).
# Last, a missing id must answer 404 not_found through every node.
#
# Exercised by `docker compose run --rm drill`; also runs against a
# hand-started local cluster, e.g.
#   scripts/cluster-drill.sh 127.0.0.1:8081 127.0.0.1:8082 127.0.0.1:8083
set -eu

NODES="${*:-n1 n2 n3}"
fail() { echo "drill: FAIL: $*" >&2; exit 1; }

for n in $NODES; do
  case "$n" in *:*) addr="$n" ;; *) addr="$n:8026" ;; esac

  echo "drill: waiting for $addr/readyz"
  ready=""
  for _ in $(seq 1 120); do
    if curl -fsS -o /tmp/readyz.json "http://$addr/readyz" 2>/dev/null; then
      ready=1
      break
    fi
    sleep 0.5
  done
  [ -n "$ready" ] || fail "$addr never became ready"

  led=$(grep -o '"partitions_led":[0-9]*' /tmp/readyz.json | head -1 | cut -d: -f2)
  [ "${led:-0}" -gt 0 ] || fail "$addr leads no partitions (readyz: $(cat /tmp/readyz.json))"
  grep -q '"max_lag"' /tmp/readyz.json || fail "$addr readyz has no cluster replication detail"

  curl -fsS "http://$addr/metrics" >/tmp/metrics.txt || fail "$addr /metrics unreachable"
  for g in swamp_cluster_role_leader swamp_cluster_partitions_led \
           swamp_cluster_replication_lag swamp_cluster_sessions; do
    grep -q "^$g" /tmp/metrics.txt || fail "$addr missing gauge $g"
  done
  echo "drill: $addr ready, leads $led partitions"
done

set -- $NODES
case "$1" in *:*) api="$1" ;; *) api="$1:8026" ;; esac

echo "drill: authenticating against $api"
tok=$(curl -fsS -X POST "http://$api/oauth/token" \
  -d grant_type=client_credentials -d client_id=svc-irrigation -d client_secret=svc-secret |
  grep -o '"access_token":"[^"]*"' | cut -d'"' -f4)
[ -n "$tok" ] || fail "token grant returned no access_token"

# Scatter-gather list: must fan out across every node and return entities.
curl -fsS -H "Authorization: Bearer $tok" \
  "http://$api/v2/entities?limit=5" >/tmp/entities.json || fail "entity list failed"
grep -q '"id"' /tmp/entities.json || fail "entity list came back empty"

# Routed fetches: the probe ids hash across the partition ring, so a 200
# for each through one node proves cross-node request routing.
for i in 00 01 02 03; do
  curl -fsS -o /dev/null -H "Authorization: Bearer $tok" \
    "http://$api/v2/entities/urn:swamp:matopiba:probe:$i" ||
    fail "routed fetch of probe:$i via $api failed"
done

# A missing id answers 404 not_found through every node: the owner's
# not-found kind crosses the request plane, whichever node it entered.
for n in $NODES; do
  case "$n" in *:*) addr="$n" ;; *) addr="$n:8026" ;; esac
  ntok=$(curl -fsS -X POST "http://$addr/oauth/token" \
    -d grant_type=client_credentials -d client_id=svc-irrigation -d client_secret=svc-secret |
    grep -o '"access_token":"[^"]*"' | cut -d'"' -f4)
  code=$(curl -sS -o /tmp/nope.json -w '%{http_code}' -H "Authorization: Bearer $ntok" \
    "http://$addr/v2/entities/urn:swamp:matopiba:probe:nope")
  [ "$code" = 404 ] && grep -q '"error":"not_found"' /tmp/nope.json ||
    fail "missing entity via $addr answered $code: $(cat /tmp/nope.json)"
done

echo "drill: PASS — $# nodes ready, cluster gauges present, auth + scatter-gather + routed reads + not-found on every node OK"
