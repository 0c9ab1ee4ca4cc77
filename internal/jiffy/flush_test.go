package jiffy

import (
	"errors"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/simclock"
)

func TestFlushOnExpiryPersistsData(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	c := NewController(v, nil, Config{Latency: NoLatency})
	c.AddNode("n0", 8)
	store := blob.New(v, nil, blob.LatencyModel{})
	target := FlushTarget{Store: store, Bucket: "cold"}
	v.Run(func() {
		must(t, store.CreateBucket("cold", "t"))
		c.SetFlushTarget(target)
		ns, err := c.CreateNamespace("/job", NamespaceOptions{Lease: time.Second, FlushOnExpiry: true})
		must(t, err)
		must(t, ns.Put("result", []byte("42")))
		must(t, ns.Put("aux", []byte("meta")))
		v.Sleep(2 * time.Second) // expiry at 1 s flushed the namespace
	})
	// Ephemeral copy is gone; persistent copy remains.
	if _, err := c.Namespace("/job"); err == nil {
		t.Fatal("namespace survived expiry")
	}
	data, err := Flushed(target, "/job", "result")
	if err != nil || string(data) != "42" {
		t.Fatalf("flushed value = %q err=%v", data, err)
	}
	keys, err := listFlushed(target, "/job")
	must(t, err)
	if len(keys) != 2 || keys[0] != "aux" || keys[1] != "result" {
		t.Fatalf("flushed keys = %v", keys)
	}
}

func TestNoFlushWithoutOptIn(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	c := NewController(v, nil, Config{Latency: NoLatency})
	c.AddNode("n0", 4)
	store := blob.New(v, nil, blob.LatencyModel{})
	target := FlushTarget{Store: store, Bucket: "cold"}
	v.Run(func() {
		must(t, store.CreateBucket("cold", "t"))
		c.SetFlushTarget(target)
		ns, err := c.CreateNamespace("/quiet", NamespaceOptions{Lease: time.Second})
		must(t, err)
		must(t, ns.Put("k", []byte("v")))
		v.Sleep(2 * time.Second)
	})
	if keys, _ := listFlushed(target, "/quiet"); len(keys) != 0 {
		t.Fatalf("data flushed without opt-in: %v", keys)
	}
}

// TestFlushKeysStayInTheirNamespace: what a namespace flushes is named by
// its path and key together, so a parent's key that spells a child's path
// ("/job" + "sub/k") and the child's own key ("/job/sub" + "k") are two
// objects, and a parent that rematerializes reloads only its own keys.
func TestFlushKeysStayInTheirNamespace(t *testing.T) {
	v := simclock.NewVirtual()
	defer v.Close()
	c := NewController(v, nil, Config{Latency: NoLatency, DefaultLease: -1})
	c.AddNode("mem-0", 8)
	store := blob.New(v, nil, blob.LatencyModel{})
	target := FlushTarget{Store: store, Bucket: "cold"}
	v.Run(func() {
		must(t, store.CreateBucket("cold", "t"))
		c.SetFlushTarget(target)
		job, err := c.CreateNamespace("/job", NamespaceOptions{})
		must(t, err)
		sub, err := job.CreateChild("sub", NamespaceOptions{})
		must(t, err)

		// Collision: the two names must not land on one object.
		must(t, job.Put("sub/k", []byte("parent")))
		must(t, sub.Put("k", []byte("child")))
		_, err = job.Checkpoint()
		must(t, err)
		_, err = sub.Checkpoint()
		must(t, err)
		if got, err := Flushed(target, "/job", "sub/k"); err != nil || string(got) != "parent" {
			t.Errorf("flushed /job sub/k = %q %v, want parent", got, err)
		}
		if got, err := Flushed(target, "/job/sub", "k"); err != nil || string(got) != "child" {
			t.Errorf("flushed /job/sub k = %q %v, want child", got, err)
		}

		// Rematerialize: /app holding only x must not gain /app/sub's key.
		app, err := c.CreateNamespace("/app", NamespaceOptions{})
		must(t, err)
		appSub, err := app.CreateChild("sub", NamespaceOptions{})
		must(t, err)
		must(t, app.Put("x", []byte("1")))
		must(t, appSub.Put("k", []byte("sub")))
		_, err = app.Checkpoint()
		must(t, err)
		_, err = appSub.Checkpoint()
		must(t, err)
		_, _, err = c.CrashNode("mem-0")
		must(t, err)
		must(t, c.RestartNode("mem-0"))
		restored, err := app.Rematerialize()
		must(t, err)
		if restored != 1 {
			t.Errorf("restored %d keys into /app, want 1 (x)", restored)
		}
		if got, err := app.Get("sub/k"); !errors.Is(err, ErrNoKey) {
			t.Errorf("/app Get(sub/k) after rematerialize = %q %v, want ErrNoKey", got, err)
		}
		if got, err := app.Get("x"); err != nil || string(got) != "1" {
			t.Errorf("/app Get(x) = %q %v, want 1", got, err)
		}
	})
}
