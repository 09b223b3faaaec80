// Shielding: the paper's Figure 5 and Section 4.2 through the public API.
//
// Revenue per item over R ⋈ S ⋈ T, where the aggregate multiplies columns
// from both sides of a join and Item is not a key of R, so the paper's
// eager aggregation cannot push it below the joins. The factorized push
// can: it aggregates R ⋈ S by item into SUM(Quantity) and COUNT(*) and
// rebuilds the revenue as Price times that sum, and the optimizer keeps
// the partial, so a price change costs one probe. The Shielded optimizer
// (articulation nodes, Theorem 4.1) finds the same optimum as the exact
// search behind Exhaustive (branch-and-bound).
//
// Run: go run ./examples/shielding
package main

import (
	"fmt"
	"log"
	"strings"

	mvmaint "repro"
	"repro/internal/txn"
)

func main() {
	log.SetFlags(0)
	db := mvmaint.Open()
	db.MustExec(`
CREATE TABLE R (RName VARCHAR(20) PRIMARY KEY, Item VARCHAR(20));
CREATE TABLE S (SName VARCHAR(20) PRIMARY KEY, Item VARCHAR(20), Quantity INT);
CREATE TABLE T (Item VARCHAR(20) PRIMARY KEY, Price INT);
CREATE INDEX r_item ON R (Item);
CREATE INDEX s_item ON S (Item);
CREATE INDEX t_item ON T (Item);
`)
	var b strings.Builder
	for i := 0; i < 60; i++ {
		item := fmt.Sprintf("item%02d", i)
		fmt.Fprintf(&b, "INSERT INTO T VALUES ('%s', %d);\n", item, 10+i%7)
		for j := 0; j < 3; j++ {
			fmt.Fprintf(&b, "INSERT INTO R VALUES ('r%02d_%d', '%s');\n", i, j, item)
			fmt.Fprintf(&b, "INSERT INTO S VALUES ('s%02d_%d', '%s', %d);\n", i, j, item, 1+(i+j)%5)
		}
	}
	db.MustExec(b.String())

	// Figure 5's view, with an assertion-style threshold on top.
	db.MustExec(`
CREATE VIEW Revenue (Item, Total) AS
SELECT T.Item, SUM(Quantity * Price)
FROM R, S, T
WHERE R.Item = S.Item AND S.Item = T.Item
GROUP BY T.Item;
`)

	workload := []*txn.Type{
		{Name: ">T", Weight: 1, Updates: []txn.RelUpdate{
			{Rel: "T", Kind: txn.Modify, Size: 1, Cols: []string{"Price"}}}},
		{Name: "+S", Weight: 1, Updates: []txn.RelUpdate{
			{Rel: "S", Kind: txn.Insert, Size: 1}}},
		{Name: ">R", Weight: 0.5, Updates: []txn.RelUpdate{
			{Rel: "R", Kind: txn.Modify, Size: 1, Cols: []string{"RName"}}}},
	}

	for _, method := range []mvmaint.Method{mvmaint.Exhaustive, mvmaint.Shielded} {
		sys, err := db.Build([]string{"Revenue"}, mvmaint.Config{
			Workload: workload,
			Method:   method,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s explored %3d view sets, optimum %.4g page I/Os per txn, chose %s\n",
			method, sys.Decision.Explored, sys.Decision.Best.Weighted, sys.Decision.Best.Set.Key())
		if method == mvmaint.Shielded {
			fmt.Println("\nThe aggregate's equivalence node shields its join subtree:")
			fmt.Println("its local optimum combines with the rest (Theorem 4.1), so the")
			fmt.Println("shielded search finds the answer the exhaustive one does.")
			fmt.Println("Chosen beside the root:")
			for _, v := range sys.AdditionalViews() {
				fmt.Println("  " + v)
			}
			out, err := sys.Execute(`UPDATE T SET Price = 99 WHERE Item = 'item07'`)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nmaintained a price change in %d page I/Os\n", out.Report.PaperTotal())
		}
	}
}
