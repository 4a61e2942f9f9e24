package rsl_test

import (
	"fmt"

	"nxcluster/internal/rsl"
)

func ExampleParse() {
	spec, err := rsl.Parse(`&(executable=/usr/local/bin/knapsack)(count=8)(jobmanager=rmf)` +
		`(environment=(NEXUS_PROXY_OUTER_SERVER rwcp-outer:7000))`)
	if err != nil {
		panic(err)
	}
	fmt.Println(spec.GetString("executable", ""))
	fmt.Println(spec.GetInt("count", 1))
	pairs, _ := spec.Pairs("environment")
	fmt.Println(pairs[0][0], "=", pairs[0][1])
	// Output:
	// /usr/local/bin/knapsack
	// 8
	// NEXUS_PROXY_OUTER_SERVER = rwcp-outer:7000
}

func ExampleParse_multirequest() {
	spec, err := rsl.Parse(`+(&(resourceManagerContact=rwcp)(count=4))` +
		`(&(resourceManagerContact=etl)(count=8))`)
	if err != nil {
		panic(err)
	}
	for _, sub := range spec.Multi {
		fmt.Println(sub.GetString("resourceManagerContact", ""), sub.GetInt("count", 0))
	}
	// Output:
	// rwcp 4
	// etl 8
}

func ExampleSpec_String() {
	spec := &rsl.Spec{}
	spec.Set("executable", rsl.Value{Str: "hostname"})
	spec.Set("count", rsl.Value{Str: "2"})
	fmt.Println(spec.String())
	// Output:
	// &(executable=hostname)(count=2)
}
