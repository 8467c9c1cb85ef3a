// Package cyclea imports cycleb, which imports it back: the loader must
// report the cycle instead of waiting on itself.
package cyclea

import "crowdplanner/internal/fix/cycleb"

func A() int { return cycleb.B() }
