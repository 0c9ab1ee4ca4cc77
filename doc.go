// Package repro is a from-scratch Go reproduction of the serverless
// ecosystem deconstructed in "Le Taureau: Deconstructing the Serverless
// Landscape & A Look Forward" (Khandelwal, Kejariwal, Ramasamy — SIGMOD
// 2020): a FaaS platform with demand-driven scaling and fine-grained
// billing, the BaaS substrates (blob store, transactional database, queues),
// a Step-Functions-style orchestrator, a Pulsar-style messaging cluster
// (brokers, BookKeeper-style ledgers, ZooKeeper-style coordination, Pulsar
// Functions), the Jiffy ephemeral-state store, a data-sketch library, and
// the analytics/ML workloads the paper surveys.
//
// Start at internal/core for the assembled platform, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for the experiment results, which
// internal/experiments' TestExperiments checks and writes. The examples/
// directory holds runnable programs; cmd/taureau is the one binary (taureau
// experiments prints every table) and benchmark/ owns every performance number.
package repro
