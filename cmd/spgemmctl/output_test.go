package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/blockreorg/blockreorg/server"
)

// TestMultiplyOutputRejectsInvalidValues answers the job poll with a
// product whose only entry lies outside its dimensions: multiply -o must
// fail and leave no file behind.
func TestMultiplyOutputRejectsInvalidValues(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/multiply", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(server.Accepted{Job: "j-1", URL: "/v1/jobs/j-1"})
	})
	mux.HandleFunc("GET /v1/jobs/j-1", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(server.JobStatus{
			ID:    "j-1",
			State: server.StateDone,
			Result: &server.JobResult{Rows: 2, Cols: 2, Values: &server.COOPayload{
				Rows: 2, Cols: 2, I: []int{5}, J: []int{0}, V: []float64{1},
			}},
		})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	product := filepath.Join(t.TempDir(), "c.mtx")
	c := &client{base: ts.URL, out: &bytes.Buffer{}}
	err := c.multiply([]string{"-a", "net", "-o", product})
	if err == nil || !strings.Contains(err.Error(), "outside 2x2") {
		t.Fatalf("multiply -o with an out-of-range entry: error = %v", err)
	}
	if _, err := os.Stat(product); !os.IsNotExist(err) {
		t.Fatalf("product file exists after a rejected payload (stat error %v)", err)
	}
}
