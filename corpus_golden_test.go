package arachnet_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"arachnet"
	"arachnet/internal/eval"
)

// TestCorpusAnswersGolden pins what the system answers, end to end, to
// every eval.Corpus question on three worlds: the small worlds 7 and 42
// and the default world. Each question is asked uncached and uncurated
// before any scenario, after injecting scenario 5 and after then
// injecting scenario 6; the digest hashes each ask's error text and, on
// success, its answerJSON. The digests were captured before the set-up
// and analysis kernels were rewritten to compute each distance,
// baseline and sort once, so a new digest means a kernel changed an
// answer, not just its cost. The default-world row skips under -short.
func TestCorpusAnswersGolden(t *testing.T) {
	rows := []struct {
		name   string
		opts   []arachnet.Option
		digest string
	}{
		{"small-7", []arachnet.Option{arachnet.WithSmallWorld(7)}, "491ff6c34f10274339d7b06fdfa7e44cfe24fcdd98268dc5a677181f5ee42f32"},
		{"small-42", []arachnet.Option{arachnet.WithSmallWorld(42)}, "f8d938a72a13e27f40d07f818300c5f570fb7f9ecb0a028480a52dfe06eb9628"},
		{"default", nil, "74e8692b25407ba3c94629f1905b9c9e5eabe7827a9e94270694cc2da054766c"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.opts == nil && testing.Short() {
				t.Skip("the default world runs without -short")
			}
			sys, err := arachnet.New(row.opts...)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, seed := range []uint64{0, 5, 6} {
				if seed != 0 {
					if err := sys.Environment().InjectCableFailureScenario(arachnet.ScenarioConfig{Seed: seed}); err != nil {
						t.Fatal(err)
					}
				}
				for _, q := range eval.Corpus() {
					rep, err := sys.Ask(ctx, q, arachnet.AskNoCache(), arachnet.AskWithoutCuration())
					fmt.Fprintf(h, "%v\n", err)
					if err == nil {
						h.Write(answerJSON(t, rep))
					}
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != row.digest {
				t.Errorf("corpus answers digest %s, want %s", got, row.digest)
			}
		})
	}
}
