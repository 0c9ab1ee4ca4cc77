// Package blob implements the S3-style Backend-as-a-Service object store
// from §2.2/§4.1 of the paper: arbitrarily scalable buckets of immutable
// versioned objects, billed per request and per byte, with event
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
	ErrBucketFull   = errors.New("blob: bucket not empty")
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

// ObjectInfo describes one stored object version.
type ObjectInfo struct {
	Bucket     string
	Key        string
	Size       int
	ETag       string
	VersionID  int64
	ModifiedAt time.Time
}

// Event is emitted to notification subscribers after a mutation.
type Event struct {
	Type   EventType
	Object ObjectInfo
}

// EventType distinguishes object mutations.
type EventType int

const (
	// EventPut fires after an object version is written.
	EventPut EventType = iota
	// EventDelete fires after an object is deleted.
	EventDelete
)

type version struct {
	data []byte
	info ObjectInfo
}

type object struct {
	versions []version // newest last
}

type bucket struct {
	name       string
	tenant     string
	versioning bool
	objects    map[string]*object
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

// Subscribe registers fn to receive an Event after every mutation. Handlers
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

// DeleteBucket removes an empty bucket.
func (s *Store) DeleteBucket(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoBucket, name)
	}
	if len(b.objects) > 0 {
		return fmt.Errorf("%w: %q", ErrBucketFull, name)
	}
	delete(s.buckets, name)
	return nil
}

// SetVersioning toggles version retention on a bucket. Unversioned buckets
// keep only the latest version of each object.
func (s *Store) SetVersioning(name string, on bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoBucket, name)
	}
	b.versioning = on
	return nil
}

// PutOptions carries optional preconditions for Put.
type PutOptions struct {
	// IfMatch, when non-empty, requires the current ETag to equal it.
	IfMatch string
	// IfNoneMatch, when true, requires the object not to exist (create-only).
	IfNoneMatch bool
}

// Put writes an object version and returns its info. The calling goroutine
// pays the modelled transfer latency.
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
	obj := b.objects[key]
	cur := ""
	if obj != nil && len(obj.versions) > 0 {
		cur = obj.versions[len(obj.versions)-1].info.ETag
	}
	if opts.IfNoneMatch && cur != "" {
		s.mu.Unlock()
		return ObjectInfo{}, fmt.Errorf("%w: object %q exists", ErrPrecondition, key)
	}
	if opts.IfMatch != "" && opts.IfMatch != cur {
		s.mu.Unlock()
		return ObjectInfo{}, fmt.Errorf("%w: etag %q != %q", ErrPrecondition, cur, opts.IfMatch)
	}
	if obj == nil {
		obj = &object{}
		b.objects[key] = obj
	}
	var nextVersion int64 = 1
	if n := len(obj.versions); n > 0 {
		nextVersion = obj.versions[n-1].info.VersionID + 1
	}
	info := ObjectInfo{
		Bucket:     bucketName,
		Key:        key,
		Size:       len(data),
		ETag:       etag(data),
		VersionID:  nextVersion,
		ModifiedAt: s.clock.Now(),
	}
	v := version{data: append([]byte(nil), data...), info: info}
	if b.versioning {
		obj.versions = append(obj.versions, v)
	} else {
		obj.versions = []version{v}
	}
	tenant := b.tenant
	subs := append([]func(Event){}, s.subs...)
	s.mu.Unlock()

	s.meterAdd(tenant, billing.ResBlobPut, 1)
	for _, fn := range subs {
		fn(Event{Type: EventPut, Object: info})
	}
	return info, nil
}

// Get returns the latest version of an object. The calling goroutine pays the
// modelled transfer latency.
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
	if !ok || len(obj.versions) == 0 {
		s.mu.Unlock()
		s.clock.Sleep(s.latency.Cost(0))
		s.meterAdd(b.tenant, billing.ResBlobGet, 1)
		return nil, ObjectInfo{}, fmt.Errorf("%w: %s/%s", ErrNoObject, bucketName, key)
	}
	v := obj.versions[len(obj.versions)-1]
	data := append([]byte(nil), v.data...)
	tenant := b.tenant
	s.mu.Unlock()

	s.clock.Sleep(s.latency.Cost(len(data)))
	s.meterAdd(tenant, billing.ResBlobGet, 1)
	s.meterAdd(tenant, billing.ResBlobBytesOut, float64(len(data)))
	return data, v.info, nil
}

// GetVersion returns a specific version of an object (versioned buckets).
func (s *Store) GetVersion(bucketName, key string, versionID int64) ([]byte, ObjectInfo, error) {
	s.mu.Lock()
	b, ok := s.buckets[bucketName]
	if !ok {
		s.mu.Unlock()
		return nil, ObjectInfo{}, fmt.Errorf("%w: %q", ErrNoBucket, bucketName)
	}
	obj, ok := b.objects[key]
	if ok {
		for _, v := range obj.versions {
			if v.info.VersionID == versionID {
				data := append([]byte(nil), v.data...)
				tenant := b.tenant
				s.mu.Unlock()
				s.clock.Sleep(s.latency.Cost(len(data)))
				s.meterAdd(tenant, billing.ResBlobGet, 1)
				return data, v.info, nil
			}
		}
	}
	s.mu.Unlock()
	return nil, ObjectInfo{}, fmt.Errorf("%w: %s/%s@v%d", ErrNoObject, bucketName, key, versionID)
}

// Head returns object metadata without transferring the payload.
func (s *Store) Head(bucketName, key string) (ObjectInfo, error) {
	s.clock.Sleep(s.latency.Cost(0))
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return ObjectInfo{}, fmt.Errorf("%w: %q", ErrNoBucket, bucketName)
	}
	obj, ok := b.objects[key]
	if !ok || len(obj.versions) == 0 {
		return ObjectInfo{}, fmt.Errorf("%w: %s/%s", ErrNoObject, bucketName, key)
	}
	return obj.versions[len(obj.versions)-1].info, nil
}

// Delete removes an object (all versions).
func (s *Store) Delete(bucketName, key string) error {
	s.clock.Sleep(s.latency.Cost(0))
	s.mu.Lock()
	b, ok := s.buckets[bucketName]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNoBucket, bucketName)
	}
	obj, ok := b.objects[key]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s/%s", ErrNoObject, bucketName, key)
	}
	info := obj.versions[len(obj.versions)-1].info
	delete(b.objects, key)
	subs := append([]func(Event){}, s.subs...)
	s.mu.Unlock()

	for _, fn := range subs {
		fn(Event{Type: EventDelete, Object: info})
	}
	return nil
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
		vs := b.objects[k].versions
		out[i] = vs[len(vs)-1].info
	}
	return out, truncated, nil
}

// TotalBytes returns the bytes currently stored in a bucket (latest versions
// plus retained history).
func (s *Store) TotalBytes(bucketName string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[bucketName]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoBucket, bucketName)
	}
	var n int
	for _, obj := range b.objects {
		for _, v := range obj.versions {
			n += len(v.data)
		}
	}
	return n, nil
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
