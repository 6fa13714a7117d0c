// Package ssb generates the Star Schema Benchmark dataset (O'Neil, O'Neil
// & Chen 2007) in the denormalized form CORADD designs over — the
// lineorder fact pre-joined with its date, customer, supplier and part
// dimensions — together with the 13 standard SSB queries and the paper's
// augmented 52-query workload (§7.1).
//
// The generator reproduces the correlation structure the paper exploits:
//
//   - the date hierarchy: orderdate → yearmonth → year, weeknum correlated
//     with both, commitdate a few days after orderdate;
//   - the geography hierarchies: city → nation → region for customers and
//     suppliers;
//   - the product hierarchy: brand → category → mfgr.
//
// A simplified 360-day calendar (12 months × 30 days) keeps the date
// arithmetic exact without a civil-calendar dependency; all correlation
// strengths the designer consumes are unaffected.
package ssb

import (
	"fmt"
	"math/rand"

	"coradd/internal/query"
	"coradd/internal/schema"
	"coradd/internal/storage"
	"coradd/internal/value"
)

// Years spanned by the benchmark's date dimension.
const (
	FirstYear = 1992
	LastYear  = 1998
	numYears  = LastYear - FirstYear + 1
	daysYear  = 360 // 12 synthetic months × 30 days
)

// Column names of the denormalized lineorder relation.
const (
	ColOrderKey   = "orderkey"
	ColCustKey    = "custkey"
	ColSuppKey    = "suppkey"
	ColPartKey    = "partkey"
	ColOrderDate  = "orderdate"
	ColCommitDate = "commitdate"
	ColYear       = "year"
	ColYearMonth  = "yearmonth"
	ColWeekNum    = "weeknum"
	ColQuantity   = "quantity"
	ColDiscount   = "discount"
	ColRevenue    = "revenue"
	ColExtPrice   = "extendedprice"
	ColSupplyCost = "supplycost"
	ColCCity      = "c_city"
	ColCNation    = "c_nation"
	ColCRegion    = "c_region"
	ColSCity      = "s_city"
	ColSNation    = "s_nation"
	ColSRegion    = "s_region"
	ColPMfgr      = "p_mfgr"
	ColPCategory  = "p_category"
	ColPBrand     = "p_brand"
)

// Cardinalities of the generated dimensions.
const (
	NumRegions    = 5
	NumNations    = 25  // 5 per region
	NumCities     = 250 // 10 per nation
	NumMfgrs      = 5
	NumCategories = 25   // 5 per mfgr
	NumBrands     = 1000 // 40 per category
)

// Schema returns the denormalized lineorder schema with the paper's
// logical byte widths.
func Schema() *schema.Schema {
	return schema.New(
		schema.Column{Name: ColOrderKey, ByteSize: 4},
		schema.Column{Name: ColCustKey, ByteSize: 4},
		schema.Column{Name: ColSuppKey, ByteSize: 4},
		schema.Column{Name: ColPartKey, ByteSize: 4},
		schema.Column{Name: ColOrderDate, ByteSize: 4},
		schema.Column{Name: ColCommitDate, ByteSize: 4},
		schema.Column{Name: ColYear, ByteSize: 2},
		schema.Column{Name: ColYearMonth, ByteSize: 4},
		schema.Column{Name: ColWeekNum, ByteSize: 1},
		schema.Column{Name: ColQuantity, ByteSize: 1},
		schema.Column{Name: ColDiscount, ByteSize: 1},
		schema.Column{Name: ColRevenue, ByteSize: 4},
		schema.Column{Name: ColExtPrice, ByteSize: 4},
		schema.Column{Name: ColSupplyCost, ByteSize: 4},
		schema.Column{Name: ColCCity, ByteSize: 2},
		schema.Column{Name: ColCNation, ByteSize: 1},
		schema.Column{Name: ColCRegion, ByteSize: 1},
		schema.Column{Name: ColSCity, ByteSize: 2},
		schema.Column{Name: ColSNation, ByteSize: 1},
		schema.Column{Name: ColSRegion, ByteSize: 1},
		schema.Column{Name: ColPMfgr, ByteSize: 1},
		schema.Column{Name: ColPCategory, ByteSize: 1},
		schema.Column{Name: ColPBrand, ByteSize: 2},
	)
}

// Config controls generation.
type Config struct {
	// Rows is the lineorder tuple count.
	Rows int
	// Customers/Suppliers/Parts are dimension sizes keys are drawn from.
	Customers, Suppliers, Parts int
	// Seed makes generation deterministic.
	Seed int64
	// ChronoDates makes orderdate (nearly) monotone in orderkey, the way a
	// real order-entry system numbers orders chronologically: row i's order
	// day advances with i, jittered by a few days of out-of-order entry.
	// This is the correlation Hermit-style secondary indexes exploit on a
	// table kept in its load order. Off by default, which leaves generation
	// bit-identical to the original independent-date sampling.
	ChronoDates bool
}

// DefaultConfig is a laptop-scale instance preserving SSB's correlation
// structure (the paper ran Scale 4, 24M tuples; budgets in experiments are
// scaled with heap size).
func DefaultConfig() Config {
	return Config{Rows: 150_000, Customers: 6000, Suppliers: 400, Parts: 4000, Seed: 42}
}

// DateOf converts a day index (0-based from FirstYear-01-01) into the
// yyyymmdd encoding of the synthetic calendar.
func DateOf(day int) (date, year, yearmonth, weeknum value.V) {
	y := FirstYear + day/daysYear
	dy := day % daysYear
	m := dy/30 + 1
	d := dy%30 + 1
	date = value.V(y*10000 + m*100 + d)
	year = value.V(y)
	yearmonth = value.V(y*100 + m)
	weeknum = value.V(dy/7 + 1) // 1..52
	return
}

// Generate builds the denormalized lineorder relation, clustered on its
// primary key (orderkey), the default design a DBMS would start from.
func Generate(cfg Config) *storage.Relation {
	if cfg.Rows <= 0 {
		cfg = DefaultConfig()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := Schema()
	// Column positions are resolved once, and all rows slice into one
	// backing array.
	var (
		cOrder, cCust, cSupp, cPart = s.MustCol(ColOrderKey), s.MustCol(ColCustKey), s.MustCol(ColSuppKey), s.MustCol(ColPartKey)
		cDate, cCommit              = s.MustCol(ColOrderDate), s.MustCol(ColCommitDate)
		cYear, cYearMonth, cWeek    = s.MustCol(ColYear), s.MustCol(ColYearMonth), s.MustCol(ColWeekNum)
		cQty, cDisc                 = s.MustCol(ColQuantity), s.MustCol(ColDiscount)
		cRev, cPrice, cSupplyCost   = s.MustCol(ColRevenue), s.MustCol(ColExtPrice), s.MustCol(ColSupplyCost)
		cCCity, cCNation, cCRegion  = s.MustCol(ColCCity), s.MustCol(ColCNation), s.MustCol(ColCRegion)
		cSCity, cSNation, cSRegion  = s.MustCol(ColSCity), s.MustCol(ColSNation), s.MustCol(ColSRegion)
		cMfgr, cCategory, cBrand    = s.MustCol(ColPMfgr), s.MustCol(ColPCategory), s.MustCol(ColPBrand)
	)
	width := len(s.Columns)
	arena := make([]value.V, cfg.Rows*width)
	rows := make([]value.Row, cfg.Rows)
	for i := 0; i < cfg.Rows; i++ {
		row := arena[i*width : (i+1)*width : (i+1)*width]
		ck := value.V(rng.Intn(cfg.Customers))
		sk := value.V(rng.Intn(cfg.Suppliers))
		pk := value.V(rng.Intn(cfg.Parts))
		var day int
		if cfg.ChronoDates {
			day = i*(numYears*daysYear)/cfg.Rows + rng.Intn(5) - 2
			if day < 0 {
				day = 0
			}
			if day >= numYears*daysYear {
				day = numYears*daysYear - 1
			}
		} else {
			day = rng.Intn(numYears * daysYear)
		}
		date, year, ym, wk := DateOf(day)
		commitDay := day + 1 + rng.Intn(30)
		if commitDay >= numYears*daysYear {
			commitDay = numYears*daysYear - 1
		}
		commit, _, _, _ := DateOf(commitDay)

		qty := value.V(1 + rng.Intn(50))
		disc := value.V(rng.Intn(11))
		price := value.V(900 + rng.Intn(104_100))
		rev := price * (100 - disc) / 100

		row[cOrder] = value.V(i) // unique PK (order line id)
		row[cCust] = ck
		row[cSupp] = sk
		row[cPart] = pk
		row[cDate] = date
		row[cCommit] = commit
		row[cYear] = year
		row[cYearMonth] = ym
		row[cWeek] = wk
		row[cQty] = qty
		row[cDisc] = disc
		row[cRev] = rev
		row[cPrice] = price
		row[cSupplyCost] = price * 6 / 10

		// Customer geography hierarchy: city → nation → region. The
		// within-nation city digit comes from the key's high part so that
		// nation (low part) and digit are independent and every city value
		// occurs.
		cn := ck % NumNations
		row[cCCity] = cn*10 + (ck/NumNations)%10
		row[cCNation] = cn
		row[cCRegion] = cn / 5

		sn := sk % NumNations
		row[cSCity] = sn*10 + (sk/NumNations)%10
		row[cSNation] = sn
		row[cSRegion] = sn / 5

		// Product hierarchy: brand → category → mfgr.
		cat := pk % NumCategories
		row[cMfgr] = cat / 5
		row[cCategory] = cat
		row[cBrand] = cat*40 + (pk/NumCategories)%40

		rows[i] = row
	}
	return storage.NewRelation("lineorder", s, []int{cOrder}, rows)
}

// PKCols returns the fact table's primary-key column positions.
func PKCols(s *schema.Schema) []int { return []int{s.MustCol(ColOrderKey)} }

// ym is a yearmonth literal.
func ym(year, month int) value.V { return value.V(year*100 + month) }

// Queries returns the 13 standard SSB queries in the paper's adapted form:
// every query aggregates SUM(revenue) (the paper's price×discount and
// revenue aggregates are both single-column sums over the denormalized
// fact; using one aggregate column lets every plan's answer be checked for
// equality).
func Queries() query.Workload {
	city := func(nation, i int) value.V { return value.V(nation*10 + i) }
	return query.Workload{
		// Flight 1: date + discount + quantity restrictions.
		{
			Name: "Q1.1", Fact: "lineorder", AggCol: ColRevenue,
			Predicates: []query.Predicate{
				query.NewEq(ColYear, 1993),
				query.NewRange(ColDiscount, 1, 3),
				query.NewRange(ColQuantity, 1, 24),
			},
			Targets: []string{ColExtPrice},
		},
		{
			Name: "Q1.2", Fact: "lineorder", AggCol: ColRevenue,
			Predicates: []query.Predicate{
				query.NewEq(ColYearMonth, ym(1994, 1)),
				query.NewRange(ColDiscount, 4, 6),
				query.NewRange(ColQuantity, 26, 35),
			},
			Targets: []string{ColExtPrice},
		},
		{
			Name: "Q1.3", Fact: "lineorder", AggCol: ColRevenue,
			Predicates: []query.Predicate{
				query.NewEq(ColYear, 1994),
				query.NewEq(ColWeekNum, 6),
				query.NewRange(ColDiscount, 5, 7),
				query.NewRange(ColQuantity, 26, 35),
			},
			Targets: []string{ColExtPrice},
		},
		// Flight 2: product × supplier region over years.
		{
			Name: "Q2.1", Fact: "lineorder", AggCol: ColRevenue,
			Predicates: []query.Predicate{
				query.NewEq(ColPCategory, 6), // MFGR#12-style category
				query.NewEq(ColSRegion, 2),
			},
			Targets: []string{ColYear, ColPBrand},
		},
		{
			Name: "Q2.2", Fact: "lineorder", AggCol: ColRevenue,
			Predicates: []query.Predicate{
				query.NewRange(ColPBrand, 300, 307), // 8 consecutive brands
				query.NewEq(ColSRegion, 3),
			},
			Targets: []string{ColYear, ColPBrand},
		},
		{
			Name: "Q2.3", Fact: "lineorder", AggCol: ColRevenue,
			Predicates: []query.Predicate{
				query.NewEq(ColPBrand, 450),
				query.NewEq(ColSRegion, 4),
			},
			Targets: []string{ColYear, ColPBrand},
		},
		// Flight 3: customer × supplier geography over time.
		{
			Name: "Q3.1", Fact: "lineorder", AggCol: ColRevenue,
			Predicates: []query.Predicate{
				query.NewEq(ColCRegion, 2),
				query.NewEq(ColSRegion, 2),
				query.NewRange(ColYear, 1992, 1997),
			},
			Targets: []string{ColCNation, ColSNation, ColYear},
		},
		{
			Name: "Q3.2", Fact: "lineorder", AggCol: ColRevenue,
			Predicates: []query.Predicate{
				query.NewEq(ColCNation, 12),
				query.NewEq(ColSNation, 12),
				query.NewRange(ColYear, 1992, 1997),
			},
			Targets: []string{ColCCity, ColSCity, ColYear},
		},
		{
			Name: "Q3.3", Fact: "lineorder", AggCol: ColRevenue,
			Predicates: []query.Predicate{
				query.NewIn(ColCCity, city(12, 1), city(12, 5)),
				query.NewIn(ColSCity, city(12, 1), city(12, 5)),
				query.NewRange(ColYear, 1992, 1997),
			},
			Targets: []string{ColCCity, ColSCity, ColYear},
		},
		{
			// The paper's Q3.4 names two cities per side; at laptop scale
			// that matches ~0 rows, so each IN carries four cities — same
			// structure (two IN predicates plus a one-month restriction),
			// usable selectivity.
			Name: "Q3.4", Fact: "lineorder", AggCol: ColRevenue,
			Predicates: []query.Predicate{
				query.NewIn(ColCCity, city(12, 1), city(12, 3), city(12, 5), city(12, 7)),
				query.NewIn(ColSCity, city(12, 1), city(12, 2), city(12, 4), city(12, 5)),
				query.NewEq(ColYearMonth, ym(1997, 12)),
			},
			Targets: []string{ColCCity, ColSCity, ColYear},
		},
		// Flight 4: profit-style queries across all dimensions.
		{
			Name: "Q4.1", Fact: "lineorder", AggCol: ColRevenue,
			Predicates: []query.Predicate{
				query.NewEq(ColCRegion, 1),
				query.NewEq(ColSRegion, 1),
				query.NewIn(ColPMfgr, 0, 1),
			},
			Targets: []string{ColYear, ColCNation, ColSupplyCost},
		},
		{
			Name: "Q4.2", Fact: "lineorder", AggCol: ColRevenue,
			Predicates: []query.Predicate{
				query.NewEq(ColCRegion, 1),
				query.NewEq(ColSRegion, 1),
				query.NewIn(ColPMfgr, 0, 1),
				query.NewIn(ColYear, 1997, 1998),
			},
			Targets: []string{ColYear, ColSNation, ColPCategory, ColSupplyCost},
		},
		{
			Name: "Q4.3", Fact: "lineorder", AggCol: ColRevenue,
			Predicates: []query.Predicate{
				query.NewEq(ColCNation, 5),
				query.NewEq(ColPCategory, 8),
				query.NewIn(ColYear, 1997, 1998),
			},
			Targets: []string{ColYear, ColSCity, ColPBrand, ColSupplyCost},
		},
	}
}

// AugmentedQueries builds the paper's enlarged workload: the 13 base
// queries plus variants with shifted predicate constants, widened or
// narrowed ranges and altered target lists, 4× the base size in total
// (52 queries for standard SSB).
func AugmentedQueries() query.Workload {
	base := Queries()
	out := make(query.Workload, 0, len(base)*4)
	out = append(out, base...)
	for variant := 1; variant <= 3; variant++ {
		for _, q := range base {
			out = append(out, varyQuery(q, variant))
		}
	}
	return out
}

// varyQuery derives a variant: predicate constants shift by the variant
// index (wrapping within each attribute's domain) and one target attribute
// is added or removed, mirroring the paper's "varied target attributes,
// predicates, GROUP-BY, ORDER-BY and aggregate values".
func varyQuery(q *query.Query, variant int) *query.Query {
	nq := &query.Query{
		Name:   fmt.Sprintf("%s.v%d", q.Name, variant),
		Fact:   q.Fact,
		AggCol: q.AggCol,
		Weight: q.Weight,
	}
	for _, p := range q.Predicates {
		nq.Predicates = append(nq.Predicates, shiftPredicate(p, variant))
	}
	// Vary targets: rotate an extra attribute in or out.
	extras := []string{ColExtPrice, ColSupplyCost, ColQuantity}
	nq.Targets = append([]string(nil), q.Targets...)
	extra := extras[variant%len(extras)]
	if !containsStr(nq.Targets, extra) {
		nq.Targets = append(nq.Targets, extra)
	} else if len(nq.Targets) > 1 {
		nq.Targets = nq.Targets[:len(nq.Targets)-1]
	}
	return nq
}

func shiftPredicate(p query.Predicate, variant int) query.Predicate {
	d := value.V(variant)
	switch p.Col {
	case ColYear:
		return shiftWithin(p, d, FirstYear, LastYear)
	case ColYearMonth:
		return shiftYearMonth(p, variant)
	case ColWeekNum:
		return shiftWithin(p, d, 1, 52)
	case ColDiscount:
		return shiftWithin(p, d, 0, 10)
	case ColQuantity:
		return shiftWithin(p, d*3, 1, 50)
	case ColCRegion, ColSRegion:
		return shiftWithin(p, d, 0, NumRegions-1)
	case ColCNation, ColSNation:
		return shiftWithin(p, d*3, 0, NumNations-1)
	case ColCCity, ColSCity:
		return shiftWithin(p, d*17, 0, NumCities-1)
	case ColPMfgr:
		return shiftWithin(p, d, 0, NumMfgrs-1)
	case ColPCategory:
		return shiftWithin(p, d*2, 0, NumCategories-1)
	case ColPBrand:
		return shiftWithin(p, d*37, 0, NumBrands-1)
	default:
		return p
	}
}

// shiftWithin slides a predicate's constants by d, wrapping into [lo,hi].
func shiftWithin(p query.Predicate, d, lo, hi value.V) query.Predicate {
	span := hi - lo + 1
	wrap := func(v value.V) value.V {
		v = lo + (v-lo+d)%span
		if v < lo {
			v += span
		}
		return v
	}
	switch p.Op {
	case query.Eq:
		return query.NewEq(p.Col, wrap(p.Lo))
	case query.Range:
		width := p.Hi - p.Lo
		nl := wrap(p.Lo)
		nh := nl + width
		if nh > hi {
			nh = hi
		}
		return query.NewRange(p.Col, nl, nh)
	case query.In:
		vs := make([]value.V, len(p.Set))
		for i, v := range p.Set {
			vs[i] = wrap(v)
		}
		return query.NewIn(p.Col, vs...)
	default:
		return p
	}
}

// shiftYearMonth slides a yearmonth predicate by `variant` months within
// the calendar.
func shiftYearMonth(p query.Predicate, variant int) query.Predicate {
	shift := func(v value.V) value.V {
		y := int(v) / 100
		m := int(v)%100 - 1 + variant
		y += m / 12
		m = m % 12
		if y > LastYear {
			y = FirstYear + (y - LastYear - 1)
		}
		return value.V(y*100 + m + 1)
	}
	switch p.Op {
	case query.Eq:
		return query.NewEq(p.Col, shift(p.Lo))
	case query.Range:
		return query.NewRange(p.Col, shift(p.Lo), shift(p.Hi))
	default:
		return p
	}
}

func containsStr(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
