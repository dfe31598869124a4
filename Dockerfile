# Multi-stage build for swampd (broker + northbound + cluster plane) and
# swamp-sim (season runs and the experiment suite). The module has no external
# dependencies, so the build stage never touches the network.
#
#   docker build -t swamp/swampd .
#   docker compose up            # 3-node replicated cluster, see docker-compose.yml
#   docker compose run drill     # readiness + replication smoke drill
FROM golang:1.24-alpine AS build
WORKDIR /src
COPY go.mod ./
COPY . .
RUN CGO_ENABLED=0 go build -trimpath -ldflags='-s -w' -o /out/swampd ./cmd/swampd \
 && CGO_ENABLED=0 go build -trimpath -ldflags='-s -w' -o /out/swamp-sim ./cmd/swamp-sim

FROM alpine:3.20
# curl is only used by the compose drill (OAuth POST + readyz asserts);
# the HEALTHCHECK sticks to busybox wget so the base stays minimal.
RUN apk add --no-cache curl ca-certificates \
 && adduser -D -u 10001 swamp \
 && mkdir -p /var/lib/swamp /etc/swamp \
 && chown -R swamp /var/lib/swamp
COPY --from=build /out/swampd /out/swamp-sim /usr/local/bin/
COPY examples/swampd.toml /etc/swamp/swampd.toml
COPY scripts/cluster-drill.sh /usr/local/bin/cluster-drill.sh
USER swamp
VOLUME /var/lib/swamp
# 1883 MQTT southbound, 8026 HTTP northbound (+/metrics,/readyz), 7700 replication.
EXPOSE 1883 8026 7700
HEALTHCHECK --interval=5s --timeout=2s --start-period=15s --retries=5 \
  CMD wget -q -O /dev/null http://127.0.0.1:8026/readyz || exit 1
ENTRYPOINT ["swampd"]
# Standalone single-node default; docker-compose.yml overrides with the
# 3-node cluster flag set. Every knob is also reachable via SWAMP_* env
# (e.g. SWAMP_CLUSTER_NODE_ID) or -config /etc/swamp/swampd.toml.
CMD ["-wal-dir", "/var/lib/swamp", "-listen", "0.0.0.0:1883", "-http", "0.0.0.0:8026", "-log-format", "json"]
