package pedersen

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ipls/internal/group"
	"ipls/internal/scalar"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files instead of comparing")

// TestCommitGolden pins commitment bytes on every curve: Commit of two
// seeded L=193 vectors (the verif_k1 block width; signed fixed-point
// scalars, so the recoding path runs), their Combine, and the Uncombine
// that takes the second back out. The secp256k1 and secp256r1 rows were
// recorded with the math/big Jacobian layer, the secp256r1-fast rows with
// the crypto/elliptic backend that curve used to run on; any field or
// point-arithmetic rewrite must reproduce them byte for byte. Regenerate
// with -update-golden only when the commitment scheme itself changes.
func TestCommitGolden(t *testing.T) {
	const n = 193
	var buf bytes.Buffer
	for _, curve := range []*group.Curve{group.Secp256k1(), group.Secp256r1(), group.Secp256r1Fast()} {
		p, err := Setup(curve, n, "golden")
		if err != nil {
			t.Fatal(err)
		}
		q, err := scalar.NewQuantizer(p.Field(), scalar.DefaultShift)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(193))
		a, err := p.Commit(randomVector(rng, q, n))
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Commit(randomVector(rng, q, n))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := p.Combine(a, b)
		if err != nil {
			t.Fatal(err)
		}
		back, err := p.Uncombine(sum, b)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(a) {
			t.Fatalf("%s: Uncombine(Combine(a, b), b) != a", curve.Name)
		}
		for _, row := range []struct {
			name string
			c    Commitment
		}{{"commit_a", a}, {"commit_b", b}, {"combine", sum}, {"uncombine", back}} {
			fmt.Fprintf(&buf, "%s %s %s\n", curve.Name, row.name, hex.EncodeToString(row.c))
		}
	}
	golden := filepath.Join("testdata", "commit.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/pedersen -run TestCommitGolden -update-golden` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("commitments drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}
