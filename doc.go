// Package ipls is a from-scratch Go reproduction of "Towards Efficient
// Decentralized Federated Learning" (Pappas, Papadopoulos, Chatzopoulos,
// Panagou, Lalis, Vavalis — ICDCS 2022): a decentralized federated-learning
// protocol in which participants communicate indirectly through a
// content-addressed storage network, aggregation is accelerated by
// provider-side merge-and-download, and malicious aggregators are defeated
// by homomorphic Pedersen vector commitments.
//
// The implementation lives under internal/:
//
//   - internal/core       — the protocol engine (runtime + virtual-time sim)
//   - internal/directory  — the directory service (addr → CID, accumulators)
//   - internal/storage    — the IPFS-like storage network
//   - internal/pedersen   — Pedersen vector commitments
//   - internal/group      — secp256k1 / secp256r1 elliptic-curve groups
//   - internal/scalar     — field arithmetic and fixed-point quantization
//   - internal/netsim     — discrete-event network emulator
//   - internal/model      — parameter partitioning and block encoding
//   - internal/ml         — datasets, classifiers, SGD, FedAvg reference
//   - internal/transport  — TCP (net/rpc) deployment
//   - internal/dag        — chunked Merkle-DAG content addressing
//   - internal/cid        — SHA-256 content identifiers
//   - internal/identity   — Ed25519 participant identities, signed records
//   - internal/scenario   — the composable fault-scenario grammar
//   - internal/obs        — metrics, spans, health and introspection
//
// This package itself is the public API: a curated facade (ipls.go) over
// the implementation, holding what the examples use — TaskSpec/Config/
// Session/Task for the protocol, StorageNetwork/DirectoryService for the
// in-process backends, ParseScenario/NewScenarioRunner for fault plans,
// Simulate for the evaluation harness, and the ML entry points.
//
// Executables: cmd/iplsbench regenerates every figure of the paper's
// evaluation, cmd/iplssim drives end-to-end FL jobs, and cmd/iplsd runs the
// roles as TCP-networked processes. See README.md, DESIGN.md and
// EXPERIMENTS.md.
package ipls
