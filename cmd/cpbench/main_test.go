package main

import (
	"slices"
	"strings"
	"testing"
)

func TestParseGrids(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
		bad  string // the entry the error must name; "" for a valid list
	}{
		{in: "16", want: []int{16}},
		{in: "16,64,256", want: []int{16, 64, 256}},
		{in: " 10 , 12 ", want: []int{10, 12}},
		{in: "2", want: []int{2}},
		{in: "10,,12,", want: []int{10, 12}},
		{in: "", bad: "lists no sizes"},
		{in: " , ", bad: "lists no sizes"},
		{in: "1e3", bad: `"1e3"`},
		{in: "1O24", bad: `"1O24"`},
		{in: "16,64x", bad: `"64x"`},
		{in: "256.9", bad: `"256.9"`},
		{in: "-5", bad: `"-5"`},
		{in: "0", bad: `"0"`},
		{in: "16,1", bad: `"1"`},
	} {
		got, err := parseGrids(tc.in)
		if tc.bad == "" {
			if err != nil || !slices.Equal(got, tc.want) {
				t.Errorf("parseGrids(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("parseGrids(%q) = %v, %v; want an error naming %s", tc.in, got, err, tc.bad)
		}
	}
}
