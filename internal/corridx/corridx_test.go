package corridx

import (
	"reflect"
	"sort"
	"testing"

	"coradd/internal/btree"
	"coradd/internal/query"
	"coradd/internal/schema"
	"coradd/internal/ssb"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// hierRelation builds a relation clustered on "host" where target = host/10
// exactly (a perfect hierarchy like nation→city in reverse), with nOut rows
// broken to target 999.
func hierRelation(n, nOut int) *storage.Relation {
	s := schema.New(
		schema.Column{Name: "host", ByteSize: 4},
		schema.Column{Name: "target", ByteSize: 4},
		schema.Column{Name: "val", ByteSize: 4},
	)
	rows := make([]value.Row, n)
	for i := range rows {
		host := value.V(i % 200)
		target := host / 10
		if i < nOut {
			target = 999
		}
		rows[i] = value.Row{host, target, value.V(i)}
	}
	return storage.NewRelation("hier", s, []int{0}, rows)
}

func TestBuildPerfectHierarchy(t *testing.T) {
	rel := hierRelation(4000, 0)
	x, err := Build(rel, 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if x.NumEntries() != 20 {
		t.Fatalf("entries = %d, want 20 (one per distinct target)", x.NumEntries())
	}
	if x.NumOutliers() != 0 || x.Outliers != nil {
		t.Fatalf("perfect hierarchy must have no outliers, got %d", x.NumOutliers())
	}
	ranges := x.Translate(&query.Predicate{Col: "target", Op: query.Eq, Lo: 7, Hi: 7})
	if len(ranges) != 1 || ranges[0].Lo != 70 || ranges[0].Hi != 79 {
		t.Fatalf("Translate(target=7) = %v, want [{70 79}]", ranges)
	}
}

func TestTranslateMergesAdjacentBuckets(t *testing.T) {
	rel := hierRelation(4000, 0)
	x, err := Build(rel, 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := query.NewRange("target", 3, 5)
	ranges := x.Translate(&p)
	if len(ranges) != 1 || ranges[0].Lo != 30 || ranges[0].Hi != 59 {
		t.Fatalf("Translate(3<=target<=5) = %v, want one merged range {30 59}", ranges)
	}
}

func TestOutliersAreTrimmedAndProbed(t *testing.T) {
	// 100 rows of target 999 scattered across the host domain inside a
	// 10000-row hierarchy. Whether bucket 999 keeps a wide core interval
	// or trims rows into the outlier tree, a lookup must still find every
	// one of its rows through the translated ranges plus the probe.
	rel := hierRelation(10000, 100)
	x, err := Build(rel, 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := query.NewEq("target", 999)
	ranges := x.Translate(&p)
	rids, _ := x.OutlierRIDs(&p)
	covered := make(map[int32]bool)
	for _, rid := range rids {
		covered[rid] = true
	}
	found := 0
	for i, row := range rel.Rows {
		if row[1] != 999 {
			continue
		}
		inRange := false
		for _, r := range ranges {
			if row[0] >= r.Lo && row[0] <= r.Hi {
				inRange = true
				break
			}
		}
		if inRange || covered[int32(i)] {
			found++
		}
	}
	if want := 100; found != want {
		t.Fatalf("lookup covers %d of %d rows with target=999", found, want)
	}
}

func TestBuildRejectsUnclusteredAndLead(t *testing.T) {
	s := schema.New(schema.Column{Name: "a", ByteSize: 4}, schema.Column{Name: "b", ByteSize: 4})
	rows := []value.Row{{1, 2}, {3, 4}}
	unclustered := storage.NewRelation("u", s, nil, rows)
	if _, err := Build(unclustered, 1, DefaultConfig()); err == nil {
		t.Fatal("Build on an unclustered relation must fail")
	}
	clustered := storage.NewRelation("c", s, []int{0}, rows)
	if _, err := Build(clustered, 0, DefaultConfig()); err == nil {
		t.Fatal("Build targeting the clustered lead must fail")
	}
}

func TestTargetWidthBucketsValues(t *testing.T) {
	rel := hierRelation(4000, 0)
	x, err := Build(rel, 1, Config{TargetWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if x.NumEntries() != 5 {
		t.Fatalf("entries = %d, want 5 (targets 0..19 in width-4 buckets)", x.NumEntries())
	}
	// Bucket 1 covers targets 4..7 → hosts 40..79.
	p := query.NewEq("target", 5)
	ranges := x.Translate(&p)
	if len(ranges) != 1 || ranges[0].Lo != 40 || ranges[0].Hi != 79 {
		t.Fatalf("Translate(target=5) with width 4 = %v, want [{40 79}]", ranges)
	}
}

func TestBytesFarSmallerThanDenseIndex(t *testing.T) {
	rel := hierRelation(100_000, 0)
	x, err := Build(rel, 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A dense secondary B+Tree carries one entry per tuple; the mapping
	// carries one entry per distinct target value.
	densePages := int64(100_000*(4+4+8)) / storage.PageSize
	if x.Bytes()*10 > densePages*storage.PageSize {
		t.Fatalf("corridx %d bytes is not ≪ dense index ~%d bytes", x.Bytes(), densePages*storage.PageSize)
	}
}

// referenceBuild is Build with a reflective sort.Slice of the (bucket,
// host, rid) triples and one key allocation per outlier, kept as the
// differential reference.
func referenceBuild(rel *storage.Relation, targetCol int, cfg Config) *Index {
	cfg = normalize(cfg)
	host := rel.ClusterKey[0]
	idx := &Index{TargetCol: targetCol, HostCol: host, TargetWidth: cfg.TargetWidth}
	type triple struct {
		bucket, host value.V
		rid          int32
	}
	triples := make([]triple, rel.NumRows())
	for i := range triples {
		row := rel.Row(i)
		triples[i] = triple{bucket: BucketOf(row[targetCol], cfg.TargetWidth), host: row[host], rid: int32(i)}
	}
	sort.Slice(triples, func(i, j int) bool {
		if triples[i].bucket != triples[j].bucket {
			return triples[i].bucket < triples[j].bucket
		}
		if triples[i].host != triples[j].host {
			return triples[i].host < triples[j].host
		}
		return triples[i].rid < triples[j].rid
	})
	var outliers []btree.Entry
	for lo := 0; lo < len(triples); {
		hi := lo
		for hi < len(triples) && triples[hi].bucket == triples[lo].bucket {
			hi++
		}
		group := triples[lo:hi]
		coreLo, coreHi := trimBucket(group, cfg, func(t triple) value.V { return t.host })
		idx.entries = append(idx.entries, mapEntry{
			bucket: group[0].bucket,
			hostLo: group[coreLo].host,
			hostHi: group[coreHi-1].host,
		})
		for i, t := range group {
			if i < coreLo || i >= coreHi {
				outliers = append(outliers, btree.Entry{Key: []value.V{rel.Row(int(t.rid))[targetCol]}, RID: t.rid})
			}
		}
		lo = hi
	}
	if len(outliers) > 0 {
		idx.numOutliers = len(outliers)
		idx.Outliers = btree.Build(outliers, rel.Schema.Columns[targetCol].ByteSize)
	}
	return idx
}

// TestBuildMatchesReference compares whole indexes — mapping entries and
// the outlier tree's leaf order — on the chrono-loaded fact, where dates
// track the clustered orderkey up to a few days of jitter, and on the
// hierarchy with planted outliers.
func TestBuildMatchesReference(t *testing.T) {
	chrono := ssb.Generate(ssb.Config{Rows: 20_000, Customers: 800, Suppliers: 60, Parts: 500, Seed: 3, ChronoDates: true})
	sch := chrono.Schema
	byDate := chrono.Project("by-date", []int{sch.MustCol(ssb.ColOrderDate), sch.MustCol(ssb.ColOrderKey), sch.MustCol(ssb.ColYear)}, []int{0})
	// target = host/100 except every 50th row, which lands in a far bucket:
	// each bucket is a tight core plus a few rows worth trimming.
	rows := make([]value.Row, 10000)
	for i := range rows {
		rows[i] = value.Row{value.V(i), value.V(i / 100), value.V(i)}
		if i%50 == 7 {
			rows[i][1] = value.V(i / 50 * 37 % 100)
		}
	}
	noisy := storage.NewRelation("noisy", hierRelation(0, 0).Schema, []int{0}, rows)
	cases := []struct {
		name   string
		rel    *storage.Relation
		target int
	}{
		{"chrono year", chrono, sch.MustCol(ssb.ColYear)},
		{"chrono orderdate", chrono, sch.MustCol(ssb.ColOrderDate)},
		{"chrono discount (uncorrelated)", chrono, sch.MustCol(ssb.ColDiscount)},
		{"by-date orderkey", byDate, 1},
		{"hierarchy with scattered rows", hierRelation(10000, 100), 1},
		{"noisy dependency", noisy, 1},
	}
	if x, _ := Build(noisy, 1, Config{}); x.NumOutliers() == 0 {
		t.Fatal("the noisy dependency must exile rows to the outlier tree")
	}
	for _, c := range cases {
		for _, w := range []value.V{1, 4, 64} {
			cfg := Config{TargetWidth: w}
			got, err := Build(c.rel, c.target, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceBuild(c.rel, c.target, cfg); !reflect.DeepEqual(got, want) {
				t.Errorf("%s width %d: Build differs from the reference (%d/%d entries, %d/%d outliers)",
					c.name, w, got.NumEntries(), want.NumEntries(), got.NumOutliers(), want.NumOutliers())
			}
		}
	}
}
