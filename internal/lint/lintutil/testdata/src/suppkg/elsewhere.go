package suppkg

// elsewhere's directive sits on the line above bare's call in
// supp.go. A directive covers its own file only, so the call there is
// still reported and this directive is unused.
func elsewhere() {
	_ = 0
	//lint:ignore toycheck — no flagme call in this file to cover // want `unused //lint:ignore toycheck directive`
	_ = 1
}
