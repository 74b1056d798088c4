package objectstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"scoop/internal/pushdown"
)

// HTTP API (Swift-flavored):
//
//	PUT    /v1/{account}/{container}            create container
//	PUT    /v1/{account}/{container}/{object}   upload object
//	GET    /v1/{account}/{container}/{object}   download (Range, pushdown)
//	HEAD   /v1/{account}/{container}/{object}   metadata
//	DELETE /v1/{account}/{container}/{object}   delete
//	GET    /v1/{account}/{container}?prefix=p   list objects (JSON)
//
// Pushdown tasks ride in the X-Scoop-Pushdown header (paper §IV-B:
// "piggybacking specific metadata fields in the HTTP GET request").
// Container policies are set at creation time via headers:
//
//	X-Container-Disable-Pushdown: true
//	X-Container-Put-Pipeline: <encoded task chain>

// Header names used by the HTTP API.
const (
	HeaderDisablePushdown = "X-Container-Disable-Pushdown"
	HeaderPutPipeline     = "X-Container-Put-Pipeline"
	metaHeaderPrefix      = "X-Object-Meta-"
	// HeaderCacheStatus reports how the result cache served a pushdown GET:
	// hit | miss | collapsed. Absent when the cache was bypassed or disabled.
	HeaderCacheStatus = "X-Scoop-Cache"
	// HeaderRingEpoch carries the store's serving ring epoch on every
	// response, so connectors observe membership changes passively (no
	// polling endpoint needed to notice a rebalance happened mid-query).
	HeaderRingEpoch = "X-Scoop-Ring-Epoch"
	// HeaderRingMigrating is "true" while a migration window is open (the
	// store is serving dual-epoch reads).
	HeaderRingMigrating = "X-Scoop-Ring-Migrating"
)

// Handler serves the store API over HTTP, delegating to any Client —
// typically a Cluster's load-balanced client, making this process the
// combined LB + proxy tier of a deployment.
type Handler struct {
	client Client
	// ringInfo, when set, reports (epoch, migrating) for the response
	// headers; see SetRingInfo.
	ringInfo func() (uint64, bool)
}

// NewHandler wraps a Client into an http.Handler.
func NewHandler(client Client) *Handler { return &Handler{client: client} }

// SetRingInfo attaches the placement-epoch source (typically
// cluster.Ring().Epoch / Migrating); every response then carries
// HeaderRingEpoch and, during a migration window, HeaderRingMigrating.
func (h *Handler) SetRingInfo(fn func() (epoch uint64, migrating bool)) { h.ringInfo = fn }

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.ringInfo != nil {
		epoch, migrating := h.ringInfo()
		w.Header().Set(HeaderRingEpoch, strconv.FormatUint(epoch, 10))
		if migrating {
			w.Header().Set(HeaderRingMigrating, "true")
		}
	}
	parts := splitPath(r.URL.Path)
	if len(parts) < 2 || parts[0] != "v1" {
		http.Error(w, "expected /v1/{account}[/{container}[/{object}]]", http.StatusNotFound)
		return
	}
	switch len(parts) {
	case 2:
		h.serveAccount(w, r, parts[1])
	case 3:
		h.serveContainer(w, r, parts[1], parts[2])
	case 4:
		h.serveObject(w, r, parts[1], parts[2], parts[3])
	default:
		http.Error(w, "nested paths are not supported", http.StatusBadRequest)
	}
}

func (h *Handler) serveAccount(w http.ResponseWriter, r *http.Request, account string) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	containers, err := h.client.ListContainers(r.Context(), account)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(containers)
}

func splitPath(p string) []string {
	var out []string
	for _, s := range strings.Split(p, "/") {
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}

func (h *Handler) serveContainer(w http.ResponseWriter, r *http.Request, account, container string) {
	switch r.Method {
	case http.MethodPut:
		policy, err := policyFromHeaders(r.Header)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		err = h.client.CreateContainer(r.Context(), account, container, policy)
		switch {
		case errors.Is(err, ErrContainerExists):
			w.WriteHeader(http.StatusAccepted) // Swift: 202 on re-PUT
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			w.WriteHeader(http.StatusCreated)
		}
	case http.MethodGet:
		list, err := h.client.ListObjects(r.Context(), account, container, r.URL.Query().Get("prefix"))
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(list); err != nil {
			// Headers already sent; nothing more to do.
			return
		}
	case http.MethodDelete:
		err := h.client.DeleteContainer(r.Context(), account, container)
		switch {
		case errors.Is(err, ErrContainerNotEmpty):
			http.Error(w, err.Error(), http.StatusConflict) // Swift: 409
		case err != nil:
			writeErr(w, err)
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func policyFromHeaders(h http.Header) (*ContainerPolicy, error) {
	var policy ContainerPolicy
	used := false
	if v := h.Get(HeaderDisablePushdown); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return nil, fmt.Errorf("bad %s: %w", HeaderDisablePushdown, err)
		}
		policy.DisablePushdown = b
		used = true
	}
	if v := h.Get(HeaderPutPipeline); v != "" {
		chain, err := pushdown.DecodeChain(v)
		if err != nil {
			return nil, fmt.Errorf("bad %s: %w", HeaderPutPipeline, err)
		}
		policy.PutPipeline = chain
		used = true
	}
	if !used {
		return nil, nil
	}
	return &policy, nil
}

func (h *Handler) serveObject(w http.ResponseWriter, r *http.Request, account, container, object string) {
	switch r.Method {
	case http.MethodPut:
		meta := metaFromHeaders(r.Header)
		info, err := h.client.PutObject(r.Context(), account, container, object, r.Body, meta)
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("ETag", info.ETag)
		w.WriteHeader(http.StatusCreated)
	case http.MethodGet:
		opts := GetOptions{}
		if rng := r.Header.Get("Range"); rng != "" {
			start, end, err := parseRange(rng)
			if err != nil {
				http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
				return
			}
			opts.RangeStart, opts.RangeEnd = start, end
		}
		if enc := r.Header.Get(pushdown.HeaderName); enc != "" {
			chain, err := pushdown.DecodeChain(enc)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			opts.Pushdown = chain
		}
		rc, info, err := h.client.GetObject(r.Context(), account, container, object, opts)
		if err != nil {
			writeErr(w, err)
			return
		}
		defer rc.Close()
		w.Header().Set("ETag", info.ETag)
		setMetaHeaders(w.Header(), info.Meta)
		if info.CacheStatus != "" {
			w.Header().Set(HeaderCacheStatus, info.CacheStatus)
		}
		if len(opts.Pushdown) > 0 {
			// Filtered streams have no Content-Length, so a mid-stream filter
			// failure would be indistinguishable from success. Announce the
			// error trailer up-front; it stays empty on clean completion.
			w.Header().Set("Trailer", HeaderFilterError)
		}
		// Filtered responses have unknown length; stream chunked. Plain
		// streams — full or ranged — have a known length, and advertising
		// it is what lets the client detect mid-stream truncation and
		// resume from the break.
		if len(opts.Pushdown) == 0 {
			end := opts.RangeEnd
			if end <= 0 || end > info.Size {
				end = info.Size
			}
			if n := end - opts.RangeStart; n >= 0 {
				w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
			}
		}
		if len(opts.Pushdown) > 0 || opts.RangeStart != 0 || opts.RangeEnd > 0 {
			w.WriteHeader(http.StatusPartialContent)
		}
		if _, err := io.Copy(w, rc); err != nil {
			// Mid-stream failure: the status line is gone already. For
			// pushdown streams, report the cause in the trailer so the
			// client can distinguish a failed filter from a clean EOF.
			if len(opts.Pushdown) > 0 {
				w.Header().Set(HeaderFilterError, err.Error())
			}
			return
		}
	case http.MethodHead:
		info, err := h.client.HeadObject(r.Context(), account, container, object)
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("ETag", info.ETag)
		w.Header().Set("Content-Length", strconv.FormatInt(info.Size, 10))
		setMetaHeaders(w.Header(), info.Meta)
		w.WriteHeader(http.StatusOK)
	case http.MethodDelete:
		if err := h.client.DeleteObject(r.Context(), account, container, object); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func metaFromHeaders(h http.Header) map[string]string {
	var meta map[string]string
	for k, vs := range h {
		if strings.HasPrefix(k, metaHeaderPrefix) && len(vs) > 0 {
			if meta == nil {
				meta = map[string]string{}
			}
			meta[strings.TrimPrefix(k, metaHeaderPrefix)] = vs[0]
		}
	}
	return meta
}

func setMetaHeaders(h http.Header, meta map[string]string) {
	for k, v := range meta {
		h.Set(metaHeaderPrefix+k, v)
	}
}

// parseRange parses "bytes=start-end" (end inclusive, per RFC 7233) into the
// store's [start, end) convention. "bytes=start-" reads to the object end.
func parseRange(s string) (start, end int64, err error) {
	const prefix = "bytes="
	if !strings.HasPrefix(s, prefix) {
		return 0, 0, fmt.Errorf("unsupported Range %q", s)
	}
	spec := strings.TrimPrefix(s, prefix)
	if strings.Contains(spec, ",") {
		return 0, 0, fmt.Errorf("multi-range not supported")
	}
	dash := strings.IndexByte(spec, '-')
	if dash < 0 {
		return 0, 0, fmt.Errorf("bad Range %q", s)
	}
	startStr, endStr := spec[:dash], spec[dash+1:]
	if startStr == "" {
		return 0, 0, fmt.Errorf("suffix ranges not supported")
	}
	start, err = strconv.ParseInt(startStr, 10, 64)
	if err != nil || start < 0 {
		return 0, 0, fmt.Errorf("bad Range start %q", s)
	}
	if endStr == "" {
		return start, 0, nil
	}
	last, err := strconv.ParseInt(endStr, 10, 64)
	if err != nil || last < start {
		return 0, 0, fmt.Errorf("bad Range end %q", s)
	}
	return start, last + 1, nil
}

func writeErr(w http.ResponseWriter, err error) {
	switch {
	case IsNotFound(err):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrBadRange):
		http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
	case IsPushdownUnavailable(err) || IsFilterFailure(err):
		// Pre-first-byte pushdown refusal (or a filter failure caught before
		// any byte left): 503 so PR 3's retry machinery treats it as
		// transient, Retry-After to pace it, and the reason header so the
		// connector can decide to fall back compute-side instead.
		w.Header().Set(HeaderPushdownUnavailable, PushdownUnavailableReason(err))
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}
