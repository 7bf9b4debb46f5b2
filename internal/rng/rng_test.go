package rng

import (
	"math"
	"testing"
)

func TestDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	master := New(7)
	s1, s2 := master.Split(0), master.Split(1)
	same := 0
	for i := 0; i < 100; i++ {
		if s1.Uint64() == s2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams collided %d/100 times", same)
	}
	// Splitting is deterministic.
	r1, r2 := New(7).Split(0), New(7).Split(0)
	for i := 0; i < 10; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("split not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(9)
	lambda := 2.5
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64(lambda)
		if v < 0 {
			t.Fatalf("negative exponential sample %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/lambda) > 0.02 {
		t.Errorf("exp mean = %v, want ~%v", mean, 1/lambda)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestIntn(t *testing.T) {
	r := New(13)
	counts := make([]int, 5)
	for i := 0; i < 50000; i++ {
		counts[r.Intn(5)]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("Intn bucket %d count %d far from uniform", i, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

// knownAnswers pins the first 16 outputs of every draw the simulator makes
// for three streams: the default seed and the first two replication
// streams of a master seed. They were recorded from the plain array-indexed
// xoshiro256** step, before Uint64 was restructured for inlining. Float
// results are stored as their IEEE-754 bits, so any change to the
// generator or to the conversions — however small — fails the comparison
// rather than hiding inside a tolerance.
var knownAnswers = []struct {
	name     string
	newRand  func() *Rand
	uint64s  [16]uint64
	float64s [16]uint64 // math.Float64bits of Float64
	norms    [16]uint64 // math.Float64bits of NormFloat64
	exps     [16]uint64 // math.Float64bits of ExpFloat64(1.5)
	intn7    [16]int
}{
	{
		name:    "New(1)",
		newRand: func() *Rand { return New(1) },
		uint64s: [16]uint64{
			0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7,
			0xb27a48e29a233673, 0x24c123126ffda722, 0x123004ef8df510e6, 0x61954dcc47b1e89d,
			0xddfdb48ab9ed4a21, 0x8d3cdb8c3aa5b1d0, 0xeebd114bd87226d1, 0xf50c3ff1e7d7e8a6,
			0xeeca3115e23bc8f1, 0xab49ed3db4c66435, 0x99953c6c57808dd7, 0xe3fa941b05219325,
		},
		float64s: [16]uint64{
			0x3fe67e55eda1f8e2, 0x3fe0a76ab2c8e6c9, 0x3fe25f12eac10548, 0x3fd90b871ef099a8,
			0x3fe64f491c534466, 0x3fc260918937fed0, 0x3fb23004ef8df510, 0x3fd865537311ec7a,
			0x3febbfb691573da9, 0x3fe1a79b718754b6, 0x3fedd7a2297b0e44, 0x3feea187fe3cfafd,
			0x3fedd94622bc4779, 0x3fe5693da7b698cc, 0x3fe332a78d8af011, 0x3fec7f528360a432,
		},
		norms: [16]uint64{
			0xbfeaa5d15d61bbde, 0xbfea277e54872b51, 0x3fe0d9c8553273e0, 0xbffb02898a315caa,
			0xbfe0311d513a4fb4, 0x3fd70e173aebb381, 0xbfc73e27b903647c, 0x3fe8fea6d0727143,
			0xc001ef044891e580, 0x40024aa8978595ef, 0xbff3d8351d65aef7, 0xbfe2a3a44402a544,
			0x3fd465b5ff03ae33, 0x3feae1e35b57f041, 0x3fe80ede466ec4bc, 0x4001a558ef418381,
		},
		exps: [16]uint64{
			0x3fce14b079e54613, 0x3fdbdd74133a3a99, 0x3fd7ad719c398efb, 0x3fe403dd607dc6ee,
			0x3fcec7ea77af8e81, 0x3ff4b4004814340b, 0x3ffc3514ad5a1325, 0x3fe4934d763ce975,
			0x3fb853afd94b8f21, 0x3fd96011f24a5f40, 0x3fa7d3f478ce4b44, 0x3f9dd9502354bbad,
			0x3fa7c1315f633ad5, 0x3fd125048140c61f, 0x3fd5ccca50c38ae0, 0x3fb3c8d3dda70dc4,
		},
		intn7: [16]int{0x3, 0x6, 0x4, 0x6, 0x1, 0x6, 0x0, 0x0, 0x6, 0x0, 0x5, 0x1, 0x5, 0x5, 0x6, 0x4},
	},
	{
		name:    "New(20040628).Split(0)",
		newRand: func() *Rand { return New(20040628).Split(0) },
		uint64s: [16]uint64{
			0x9c58a4fc4e3ccde5, 0x21c850c7d08da25b, 0xa58cd9eb407bc1c5, 0xd3af2891c63d613a,
			0xaf974379408e6959, 0x1a80e35913820b46, 0xeeab12f585db1f29, 0x0656500bc354deae,
			0x2010c62ab0a9d7f8, 0xdf9d3fb0e9ac2d63, 0xb78d043ca722008c, 0x14abb4c39e57e89a,
			0xb6c9c93f72e334bc, 0xf556126e4fb98d2b, 0xf05fe7c64013a167, 0x95fc1eed4808cbd7,
		},
		float64s: [16]uint64{
			0x3fe38b149f89c799, 0x3fc0e42863e846d0, 0x3fe4b19b3d680f78, 0x3fea75e51238c7ac,
			0x3fe5f2e86f2811cd, 0x3fba80e359138208, 0x3fedd5625eb0bb63, 0x3f9959402f0d5360,
			0x3fc00863155854e8, 0x3febf3a7f61d3585, 0x3fe6f1a08794e440, 0x3fb4abb4c39e57e8,
			0x3fe6d93927ee5c66, 0x3feeaac24dc9f731, 0x3fee0bfcf8c80274, 0x3fe2bf83dda90119,
		},
		norms: [16]uint64{
			0x3fe5777216e5bcb8, 0x3fdbc290a8f3874e, 0x3fe61cdfc7d20475, 0x3fd7acc74cc11cfe,
			0x3ff6d77a9e1ff549, 0x3fe6d08eadb0278b, 0x3fe95eeefebb42bd, 0xbfd37c99b5fc8731,
			0xbff98268b13697a3, 0xbff518d5b8ec9349, 0xbff87f60e97b8b3b, 0x3fdfb987c4b72d17,
			0xbfea0eb32cfa95a2, 0x3ff1b58ca89f934a, 0xbfeeebc1bc1bad6b, 0xbff599bafd936aeb,
		},
		exps: [16]uint64{
			0x3fd50a035f8cf881, 0x3ff59a3de80b5e90, 0x3fd299390d002948, 0x3fc03866b5de7a4d,
			0x3fd016126541a045, 0x3ff830e2461b0bd8, 0x3fa7edaf4ad5bfb4, 0x4003ba05be235fa3,
			0x3ff628ad12101527, 0x3fb7156122d63915, 0x3fcc63a16da911b0, 0x3ffad79c458f979f,
			0x3fccbe953653908c, 0x3f9d0bc6bc5f7d2d, 0x3fa57f2b6cb424ef, 0x3fd6cfbaacbc4b73,
		},
		intn7: [16]int{0x5, 0x4, 0x2, 0x2, 0x2, 0x0, 0x5, 0x3, 0x6, 0x5, 0x5, 0x5, 0x6, 0x1, 0x1, 0x3},
	},
	{
		name:    "New(20040628).Split(1)",
		newRand: func() *Rand { return New(20040628).Split(1) },
		uint64s: [16]uint64{
			0x88fd2aedbd0e568f, 0xd6a8b1ae013b5ce3, 0x36874173a84eddbd, 0xbcc45b3726ae1449,
			0xd24b549ad0e3f2c7, 0xbb26821a37f7161f, 0x058653b5d381f887, 0x21475b2e101fbd5a,
			0x89d50ce22020505b, 0x1be1b1e71b4efc35, 0x4d72b518b3cceb54, 0x28c93f0d6cd3cc14,
			0x4b150a6cf652b37b, 0xfb643cb218c44fb8, 0x765a6b5bd2e4125f, 0xcd6b24961fa86589,
		},
		float64s: [16]uint64{
			0x3fe11fa55db7a1ca, 0x3fead51635c0276b, 0x3fcb43a0b9d4276c, 0x3fe7988b66e4d5c2,
			0x3fea496a935a1c7e, 0x3fe764d04346fee2, 0x3f96194ed74e07e0, 0x3fc0a3ad97080fdc,
			0x3fe13aa19c44040a, 0x3fbbe1b1e71b4ef8, 0x3fd35cad462cf33a, 0x3fc4649f86b669e4,
			0x3fd2c5429b3d94ac, 0x3fef6c8796431889, 0x3fdd969ad6f4b904, 0x3fe9ad6492c3f50c,
		},
		norms: [16]uint64{
			0x3fe2e423e449309f, 0xbfc1d7f332ed2438, 0xbfb310b14991c791, 0x3ffe56902688ad42,
			0x3feb977507a4297f, 0x3feab1314bd535ad, 0x3ff8e66e1591e8d7, 0x3fd9b62c251f2111,
			0x3fef00209a82cdea, 0xbfd33f808d3d38d4, 0xbffd9a7676c6b34c, 0xbfc3949afce67bbd,
			0x3fe97ec74411435d, 0x3febcf4318dbac2a, 0x3fcbd3def03fdd8b, 0x3fe09ae3c2a9fbf3,
		},
		exps: [16]uint64{
			0x3fdaadb1fea6cab9, 0x3fbe0f1a0fb830bc, 0x3ff07edbae0e9a81, 0x3fc9ff7c0c0fec88,
			0x3fc0c85071817e6c, 0x3fcabb5f778ad077, 0x400475583d5d9617, 0x3ff5c3444d2670d9,
			0x3fda6aa9968cf811, 0x3ff7a675ef987a95, 0x3fe981679f66a224, 0x3ff397c930dbc387,
			0x3fea2ad6ca626f48, 0x3f88cd64579e4b25, 0x3fe07570dc99625d, 0x3fc2c8c4bab14b09,
		},
		intn7: [16]int{0x6, 0x2, 0x0, 0x6, 0x0, 0x5, 0x1, 0x2, 0x5, 0x6, 0x6, 0x1, 0x6, 0x3, 0x6, 0x1},
	},
}

func TestKnownAnswers(t *testing.T) {
	for _, ka := range knownAnswers {
		r := ka.newRand()
		for i, want := range ka.uint64s {
			if got := r.Uint64(); got != want {
				t.Errorf("%s: Uint64 #%d = %#016x, want %#016x", ka.name, i, got, want)
			}
		}
		r = ka.newRand()
		for i, want := range ka.float64s {
			if got := math.Float64bits(r.Float64()); got != want {
				t.Errorf("%s: Float64 #%d bits = %#016x, want %#016x", ka.name, i, got, want)
			}
		}
		r = ka.newRand()
		for i, want := range ka.norms {
			if got := math.Float64bits(r.NormFloat64()); got != want {
				t.Errorf("%s: NormFloat64 #%d bits = %#016x, want %#016x", ka.name, i, got, want)
			}
		}
		r = ka.newRand()
		for i, want := range ka.exps {
			if got := math.Float64bits(r.ExpFloat64(1.5)); got != want {
				t.Errorf("%s: ExpFloat64 #%d bits = %#016x, want %#016x", ka.name, i, got, want)
			}
		}
		r = ka.newRand()
		for i, want := range ka.intn7 {
			if got := r.Intn(7); got != want {
				t.Errorf("%s: Intn(7) #%d = %d, want %d", ka.name, i, got, want)
			}
		}
	}
}
