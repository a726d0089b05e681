package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/serve"
	"pimkd/internal/shard"
)

// httpTarget calls an http.Handler in-process, exactly as the server's
// listener would, and decodes the JSON replies. The serve and the shard
// front doors share the neighbor and item shapes.
type httpTarget struct{ h http.Handler }

func fmtPoint(p geom.Point) string {
	parts := make([]string, len(p))
	for i, x := range p {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

func (t httpTarget) do(method, url string, v any) error {
	req := httptest.NewRequest(method, url, nil)
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(rec.Body.Bytes(), v)
}

func (t httpTarget) knn(q geom.Point, k int) ([]neighbor, error) {
	var reply struct {
		Neighbors []neighbor `json:"neighbors"`
	}
	err := t.do(http.MethodGet, "/knn?p="+fmtPoint(q)+"&k="+strconv.Itoa(k), &reply)
	return reply.Neighbors, err
}

func (t httpTarget) rangeq(box geom.Box) ([]core.Item, error) {
	var reply struct {
		Items []struct {
			ID int32     `json:"id"`
			P  []float64 `json:"p"`
		} `json:"items"`
	}
	if err := t.do(http.MethodGet, "/range?lo="+fmtPoint(box.Lo)+"&hi="+fmtPoint(box.Hi), &reply); err != nil {
		return nil, err
	}
	items := make([]core.Item, len(reply.Items))
	for i, it := range reply.Items {
		items[i] = core.Item{ID: it.ID, P: it.P}
	}
	return items, nil
}

func (t httpTarget) update(path string, it core.Item) error {
	return t.do(http.MethodPost, path+"?id="+strconv.Itoa(int(it.ID))+"&p="+fmtPoint(it.P), nil)
}

func (t httpTarget) insert(it core.Item) error { return t.update("/insert", it) }
func (t httpTarget) remove(it core.Item) error { return t.update("/delete", it) }

// serviceTarget calls serve.Service directly: the same path without HTTP.
type serviceTarget struct{ s *serve.Service }

func (t serviceTarget) knn(q geom.Point, k int) ([]neighbor, error) {
	nb, _, err := t.s.KNN(context.Background(), q, k)
	out := make([]neighbor, len(nb))
	for i, n := range nb {
		out[i] = neighbor{ID: n.ID, Dist: n.Dist}
	}
	return out, err
}

func (t serviceTarget) rangeq(box geom.Box) ([]core.Item, error) {
	items, _, err := t.s.Range(context.Background(), box)
	return items, err
}

func (t serviceTarget) insert(it core.Item) error {
	_, err := t.s.Insert(context.Background(), it)
	return err
}

func (t serviceTarget) remove(it core.Item) error {
	_, err := t.s.Delete(context.Background(), it)
	return err
}

// routerTarget calls shard.Router directly: the cluster path without HTTP.
type routerTarget struct{ r *shard.Router }

func (t routerTarget) knn(q geom.Point, k int) ([]neighbor, error) {
	cands, _, err := t.r.KNN(context.Background(), q, k)
	out := make([]neighbor, len(cands))
	for i, c := range cands {
		out[i] = neighbor{ID: c.ID, Dist: math.Sqrt(c.Dist2)}
	}
	return out, err
}

func (t routerTarget) rangeq(box geom.Box) ([]core.Item, error) {
	items, _, err := t.r.Range(context.Background(), box)
	return items, err
}

func (t routerTarget) insert(it core.Item) error {
	_, err := t.r.Insert(context.Background(), it)
	return err
}

func (t routerTarget) remove(it core.Item) error {
	_, err := t.r.Delete(context.Background(), it)
	return err
}
