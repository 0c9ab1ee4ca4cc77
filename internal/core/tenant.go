package core

import (
	"repro/internal/billing"
	"repro/internal/faas"
)

// TenantHandle scopes platform operations to one tenant. It is the
// preferred deployment API: the tenant name is stated once, at handle
// creation, instead of being threaded (and occasionally swapped) through
// every stringly call site.
//
//	acme := platform.Tenant("acme")
//	acme.Register("resize", resizeHandler, faas.Config{MemoryMB: 512})
//	res, err := acme.Invoke("resize", img)
//	fmt.Print(acme.Invoice())
type TenantHandle struct {
	p    *Platform
	name string
}

// Tenant returns a handle scoping operations to the named tenant. Handles
// are cheap and stateless; calling Tenant twice with the same name yields
// interchangeable handles.
func (p *Platform) Tenant(name string) *TenantHandle {
	return &TenantHandle{p: p, name: name}
}

// Name returns the tenant this handle is scoped to.
func (t *TenantHandle) Name() string { return t.name }

// Register deploys a function owned by this tenant.
func (t *TenantHandle) Register(name string, h faas.Handler, cfg faas.Config) error {
	return t.p.FaaS.Register(name, t.name, h, cfg)
}

// Invoke runs one of this tenant's functions synchronously. Names resolve
// only within this tenant's namespace: a function owned by a different
// tenant fails with faas.ErrNoFunction, indistinguishable from one that was
// never registered — a tenant cannot see (or probe for) another tenant's
// deployments.
func (t *TenantHandle) Invoke(name string, payload []byte) (faas.Result, error) {
	return t.p.FaaS.InvokeFor(t.name, name, payload)
}

// Unregister removes one of this tenant's functions. Like Invoke, the name
// resolves only within this tenant's namespace: another tenant's same-named
// function is untouched, and the failure is ErrNoFunction either way.
func (t *TenantHandle) Unregister(name string) error {
	return t.p.FaaS.UnregisterFor(t.name, name)
}

// Functions lists this tenant's registered functions, sorted by name.
func (t *TenantHandle) Functions() []faas.FunctionInfo {
	return t.p.FaaS.FunctionsFor(t.name)
}

// Stats snapshots one of this tenant's functions' counters.
func (t *TenantHandle) Stats(name string) (faas.Stats, error) {
	return t.p.FaaS.StatsFor(t.name, name)
}

// Invoice prices the tenant's accumulated usage.
func (t *TenantHandle) Invoice() billing.Invoice {
	return t.p.Meter.Invoice(t.name, t.p.Pricing)
}

// Shed returns how many of the tenant's requests admission has shed.
func (t *TenantHandle) Shed() int64 {
	return t.p.FaaS.AdmissionShed(t.name)
}
