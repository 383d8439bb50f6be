package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"time"

	"github.com/blockreorg/blockreorg/server/cluster"
)

// cluster dispatches the cluster-mode verbs: status, drain, uncordon.
// They talk to a spgemmd running with -cluster or -backend.
func (c *client) cluster(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("cluster needs a verb (status | drain | uncordon)")
	}
	switch args[0] {
	case "status":
		return c.clusterStatus()
	case "drain":
		return c.clusterDrain(args[1:])
	case "uncordon":
		return c.clusterUncordon(args[1:])
	default:
		return fmt.Errorf("unknown cluster verb %q (want status, drain or uncordon)", args[0])
	}
}

// clusterStatus prints the router's view of the fleet.
func (c *client) clusterStatus() error {
	var st cluster.ClusterStatus
	if err := c.api().Do(context.Background(), http.MethodGet, "/cluster/status", nil, &st); err != nil {
		return err
	}
	c.printClusterStatus(&st)
	return nil
}

func (c *client) printClusterStatus(st *cluster.ClusterStatus) {
	mode := "accepting"
	if st.Draining {
		mode = "draining"
	}
	fmt.Fprintf(c.out, "policy %s, %d instances, %s\n", st.Policy, len(st.Instances), mode)
	for _, row := range st.Instances {
		queue := "queue n/a"
		if row.QueueCapacity >= 0 {
			queue = fmt.Sprintf("queue %d/%d", row.QueueDepth, row.QueueCapacity)
		}
		fmt.Fprintf(c.out, "  %-12s %-10s %-12s outstanding=%-4d %s pending-work=%d\n",
			row.Name, row.Kind, row.State, row.Outstanding, queue, row.PendingWork)
	}
	fmt.Fprintf(c.out, "routed %d (affinity hits %d, table %d entries), admission rejected %d, tracked jobs %d\n",
		st.RoutedTotal, st.AffinityHits, st.AffinityEntries, st.AdmissionRejected, st.TrackedJobs)
}

// clusterDrain cordons an instance (or rolls through all of them) and
// waits server-side until the drained instances are idle.
func (c *client) clusterDrain(args []string) error {
	fs := flag.NewFlagSet("cluster drain", flag.ContinueOnError)
	instance := fs.String("instance", "", "instance to drain (stays cordoned; uncordon to return it)")
	rolling := fs.Bool("rolling", false, "drain every instance in turn, uncordoning each when idle")
	timeout := fs.Duration("timeout", 30*time.Second, "how long the router may wait for in-flight jobs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rolling == (*instance != "") {
		return fmt.Errorf("cluster drain needs exactly one of -instance or -rolling")
	}
	req := map[string]any{"timeout_s": timeout.Seconds()}
	if *rolling {
		req["rolling"] = true
	} else {
		req["instance"] = *instance
	}
	var out struct {
		Status cluster.ClusterStatus `json:"status"`
	}
	if err := c.api().Do(context.Background(), http.MethodPost, "/cluster/drain", req, &out); err != nil {
		return err
	}
	if *rolling {
		fmt.Fprintln(c.out, "rolling drain complete")
	} else {
		fmt.Fprintf(c.out, "%s drained (cordoned — run `spgemmctl cluster uncordon -instance %s` to restore)\n", *instance, *instance)
	}
	c.printClusterStatus(&out.Status)
	return nil
}

// clusterUncordon returns a cordoned instance to the routing rotation.
func (c *client) clusterUncordon(args []string) error {
	fs := flag.NewFlagSet("cluster uncordon", flag.ContinueOnError)
	instance := fs.String("instance", "", "instance to uncordon")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *instance == "" {
		return fmt.Errorf("cluster uncordon needs -instance")
	}
	if err := c.api().Do(context.Background(), http.MethodPost, "/cluster/uncordon", map[string]any{"instance": *instance}, nil); err != nil {
		return err
	}
	fmt.Fprintf(c.out, "%s back in rotation\n", *instance)
	return nil
}
