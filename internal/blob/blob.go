// Package blob implements the S3-style Backend-as-a-Service object store
// from §2.2/§4.1 of the paper: arbitrarily scalable buckets of immutable
// objects, billed per request and per byte, with event
// notifications that FaaS triggers subscribe to.
//
// Access latency is modelled on the shared Clock (per-operation setup cost
// plus a per-byte transfer cost), making the store the "existing persistent
// stores unfortunately do not provide the required performance" baseline for
// the ephemeral-state experiments (§4.4, experiment E4).
package blob

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/billing"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// Errors returned by Store operations.
var (
	ErrNoBucket     = errors.New("blob: bucket does not exist")
	ErrBucketExists = errors.New("blob: bucket already exists")
	ErrNoObject     = errors.New("blob: object does not exist")
	ErrPrecondition = errors.New("blob: precondition failed")
)

// LatencyModel gives the simulated access cost of the store.
type LatencyModel struct {
	PerOp   time.Duration // fixed per-request latency (network RTT + service)
	PerByte time.Duration // incremental transfer cost per payload byte
}

// Cost returns the modelled duration of an operation moving n payload bytes.
func (l LatencyModel) Cost(n int) time.Duration {
	return l.PerOp + time.Duration(n)*l.PerByte
}

// S3Latency is a representative persistent-blob-store access model:
// ~20 ms first-byte latency and ~80 MB/s effective per-stream throughput, in
// line with the measurements in the ephemeral-storage literature the paper
// cites ([124], [125]).
var S3Latency = LatencyModel{PerOp: 20 * time.Millisecond, PerByte: 12 * time.Nanosecond}

// ObjectInfo describes one stored object. VersionID counts the puts to its
// key: the first is 1.
type ObjectInfo struct {
	Bucket     string
	Key        string
	Size       int
	ETag       string
	VersionID  int64
	ModifiedAt time.Time
}

// Event is emitted to notification subscribers after a put.
type Event struct {
	Object ObjectInfo
}

// object is a key's latest and only version.
type object struct {
	data []byte
	info ObjectInfo
}

type bucket struct {
	name    string
	tenant  string
	objects map[string]*object
}

// Store is an in-process blob service shared by all tenants.
type Store struct {
	clock   simclock.Clock
	meter   *billing.Meter
	latency LatencyModel

	mu      sync.Mutex
	buckets map[string]*bucket
	subs    []func(Event)

	// Pre-resolved observability handles; nil (no-ops) until SetObs.
	obsPutLat *obs.Histogram
	obsGetLat *obs.Histogram
}

// New creates a Store. meter may be nil to disable metering.
func New(clock simclock.Clock, meter *billing.Meter, latency LatencyModel) *Store {
	return &Store{clock: clock, meter: meter, latency: latency, buckets: map[string]*bucket{}}
}

// SetObs attaches observability instruments. Call before traffic starts.
func (s *Store) SetObs(r *obs.Registry) {
	s.obsPutLat = r.Histogram("blob.put.latency")
	s.obsGetLat = r.Histogram("blob.get.latency")
}

// Subscribe registers fn to receive an Event after every put. Handlers
// run synchronously on the mutating goroutine, mirroring how provider-side
// notification hooks dispatch before the call returns.
func (s *Store) Subscribe(fn func(Event)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs = append(s.subs, fn)
}

// CreateBucket makes a bucket owned (and billed to) tenant.
func (s *Store) CreateBucket(name, tenant string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.buckets[name]; ok {
		return fmt.Errorf("%w: %q", ErrBucketExists, name)
	}
	s.buckets[name] = &bucket{name: name, tenant: tenant, objects: map[string]*object{}}
	return nil
}

// PutOptions carries optional preconditions for Put.
type PutOptions struct {
	// IfMatch, when non-empty, requires the current ETag to equal it.
	IfMatch string
	// IfNoneMatch, when true, requires the object not to exist (create-only).
	IfNoneMatch bool
}

// Put writes an object, replacing any earlier version, and returns its info.
// The calling goroutine pays the modelled transfer latency.
func (s *Store) Put(bucketName, key string, data []byte, opts PutOptions) (ObjectInfo, error) {
	if s.obsPutLat != nil {
		start := s.clock.Now()
		defer func() { s.obsPutLat.Observe(s.clock.Now().Sub(start)) }()
	}
	s.clock.Sleep(s.latency.Cost(len(data)))

	s.mu.Lock()
	b, ok := s.buckets[bucketName]
	if !ok {
		s.mu.Unlock()
		return ObjectInfo{}, fmt.Errorf("%w: %q", ErrNoBucket, bucketName)
	}
	var prev ObjectInfo
	if obj := b.objects[key]; obj != nil {
		prev = obj.info
	}
	cur := prev.ETag
	if opts.IfNoneMatch && cur != "" {
		s.mu.Unlock()
		return ObjectInfo{}, fmt.Errorf("%w: object %q exists", ErrPrecondition, key)
	}
	if opts.IfMatch != "" && opts.IfMatch != cur {
		s.mu.Unlock()
		return ObjectInfo{}, fmt.Errorf("%w: etag %q != %q", ErrPrecondition, cur, opts.IfMatch)
	}
	info := ObjectInfo{
		Bucket:     bucketName,
		Key:        key,
		Size:       len(data),
		ETag:       etag(data),
		VersionID:  prev.VersionID + 1,
		ModifiedAt: s.clock.Now(),
	}
	b.objects[key] = &object{data: append([]byte(nil), data...), info: info}
	tenant := b.tenant
	subs := append([]func(Event){}, s.subs...)
	s.mu.Unlock()

	s.meterAdd(tenant, billing.ResBlobPut, 1)
	for _, fn := range subs {
		fn(Event{Object: info})
	}
	return info, nil
}

// Get returns an object. The calling goroutine pays the modelled transfer
// latency.
func (s *Store) Get(bucketName, key string) ([]byte, ObjectInfo, error) {
	if s.obsGetLat != nil {
		start := s.clock.Now()
		defer func() { s.obsGetLat.Observe(s.clock.Now().Sub(start)) }()
	}
	s.mu.Lock()
	b, ok := s.buckets[bucketName]
	if !ok {
		s.mu.Unlock()
		return nil, ObjectInfo{}, fmt.Errorf("%w: %q", ErrNoBucket, bucketName)
	}
	obj, ok := b.objects[key]
	if !ok {
		s.mu.Unlock()
		s.clock.Sleep(s.latency.Cost(0))
		s.meterAdd(b.tenant, billing.ResBlobGet, 1)
		return nil, ObjectInfo{}, fmt.Errorf("%w: %s/%s", ErrNoObject, bucketName, key)
	}
	data := append([]byte(nil), obj.data...)
	tenant := b.tenant
	s.mu.Unlock()

	s.clock.Sleep(s.latency.Cost(len(data)))
	s.meterAdd(tenant, billing.ResBlobGet, 1)
	s.meterAdd(tenant, billing.ResBlobBytesOut, float64(len(data)))
	return data, obj.info, nil
}

// List returns up to max object infos with keys beginning with prefix and
// strictly after startAfter, in key order. It reports whether the listing was
// truncated (more results remain).
func (s *Store) List(bucketName, prefix, startAfter string, max int) ([]ObjectInfo, bool, error) {
	s.clock.Sleep(s.latency.Cost(0))
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return nil, false, fmt.Errorf("%w: %q", ErrNoBucket, bucketName)
	}
	keys := make([]string, 0, len(b.objects))
	for k := range b.objects {
		if strings.HasPrefix(k, prefix) && k > startAfter {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	s.meterAdd(b.tenant, billing.ResBlobGet, 1)
	truncated := false
	if max > 0 && len(keys) > max {
		keys = keys[:max]
		truncated = true
	}
	out := make([]ObjectInfo, len(keys))
	for i, k := range keys {
		out[i] = b.objects[k].info
	}
	return out, truncated, nil
}

func (s *Store) meterAdd(tenant, resource string, units float64) {
	if s.meter != nil {
		s.meter.Add(billing.Record{Tenant: tenant, Resource: resource, Units: units})
	}
}

func etag(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}
