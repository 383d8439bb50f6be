package cluster

import (
	"context"
	"io"
	"net/http"
	"slices"

	"github.com/blockreorg/blockreorg/internal/prom"
)

// maxScrapeBytes caps one instance's /metrics body. -backend instances
// are arbitrary remote URLs, so the router must not buffer whatever they
// send; a fully populated instance exposition is about 20 KB.
const maxScrapeBytes = 8 << 20

// handleMetrics renders the cluster-wide Prometheus exposition: the
// router's own routing/admission series, summed cluster-wide plan-cache
// traffic, and every instance's full /metrics output relabelled with an
// instance="<name>" label so one scrape covers the fleet.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := rt.Status()
	reg := prom.NewRegistry()
	reg.Gauge("cluster_instances").Set(float64(len(st.Instances)))
	// Both affinity_hit values are always emitted, so dashboards (and the
	// CI gate) read a zero instead of an absent series.
	routed := reg.Counter("cluster_routed_total", "policy", "affinity_hit")
	routed.Add(float64(st.RoutedTotal-st.AffinityHits), st.Policy, "false")
	routed.Add(float64(st.AffinityHits), st.Policy, "true")
	reg.Counter("cluster_admission_rejected_total").Add(float64(st.AdmissionRejected))
	reg.Gauge("cluster_tracked_jobs").Set(float64(st.TrackedJobs))
	reg.Gauge("cluster_affinity_entries").Set(float64(st.AffinityEntries))
	outstanding := reg.Gauge("cluster_instance_outstanding", "instance")
	pending := reg.Gauge("cluster_instance_pending_work", "instance")
	cordoned := reg.Gauge("cluster_instance_cordoned", "instance")
	for _, row := range st.Instances {
		outstanding.Set(float64(row.Outstanding), row.Name)
		pending.Set(float64(row.PendingWork), row.Name)
		c := 0.0
		if row.State == "cordoned" {
			c = 1
		}
		cordoned.Set(c, row.Name)
	}

	var scraped []prom.Family
	var failures, hits, misses float64
	for i, inst := range rt.instances {
		fams, ok := rt.scrape(r.Context(), i)
		if !ok {
			failures++
			continue
		}
		for _, f := range fams {
			for k := range f.Samples {
				s := &f.Samples[k]
				s.Labels = slices.Insert(s.Labels, 0, prom.Label{Name: "instance", Value: inst.name})
				switch f.Name {
				case "spgemmd_plancache_hits_total":
					hits += s.Value
				case "spgemmd_plancache_misses_total":
					misses += s.Value
				}
			}
		}
		scraped = append(scraped, fams...)
	}
	reg.Gauge("cluster_scrape_failures").Set(failures)
	reg.Counter("cluster_plancache_hits_total").Add(hits)
	reg.Counter("cluster_plancache_misses_total").Add(misses)

	w.Header().Set("Content-Type", prom.ContentType)
	_ = prom.Write(w, append(reg.Gather(), prom.Merge(scraped)...)) // the scraper went away; nothing to report to
}

// scrape fetches and parses one instance's exposition; false on a
// transport error, a non-200 answer or a body over maxScrapeBytes.
func (rt *Router) scrape(ctx context.Context, idx int) ([]prom.Family, bool) {
	resp, err := rt.forward(ctx, idx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxScrapeBytes+1))
	if err != nil || resp.StatusCode != http.StatusOK || len(data) > maxScrapeBytes {
		return nil, false
	}
	return prom.Parse(data), true
}
