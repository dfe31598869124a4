package core

import (
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"slices"

	"github.com/swamp-project/swamp/internal/cluster"
	"github.com/swamp-project/swamp/internal/config"
)

// startCluster makes this platform a cluster node: the Node over the
// recovered stores and WAL (replication is WAL shipping), its replication
// listener, and the Router every ingress then writes through.
func (p *Platform) startCluster(c config.Cluster) error {
	if p.Durable == nil {
		return errors.New("core: cluster mode needs durability (a WAL directory)")
	}
	peers, err := cluster.ParsePeers(c.Peers)
	if err != nil {
		return err
	}
	m, err := cluster.NewMap(cluster.Topology{
		Partitions: c.Partitions,
		Replicas:   c.Replicas,
		Nodes:      slices.Collect(maps.Keys(peers)),
	})
	if err != nil {
		return err
	}
	node, err := cluster.NewNode(cluster.NodeConfig{
		ID:         c.NodeID,
		Map:        m,
		Context:    p.Context,
		Store:      p.Store,
		WAL:        p.Durable.WAL,
		Snapshot:   p.Durable.Snapshot,
		MinISR:     c.MinISR,
		AckTimeout: c.AckTimeout,
		Dial:       func(id string) (cluster.Conn, error) { return cluster.DialTCP(peers[id]) }, // the map's nodes are the peers
		Metrics:    p.reg,
		Logf:       func(format string, args ...any) { slog.Info(fmt.Sprintf(format, args...)) },
	})
	if err != nil {
		return err
	}
	ln, err := cluster.ListenTCP(c.Listen, node.ServeConn)
	if err != nil {
		node.Close()
		return err
	}
	node.Start()
	p.Node, p.Router, p.clusterLn = node, cluster.NewRouter(node), ln
	slog.Info("cluster up", "node", c.NodeID, "peers", len(peers),
		"partitions", m.Partitions(), "led", len(m.LedBy(c.NodeID)))
	return nil
}
